//! Golden fixture for `cross-shard-state`: an adjacent `// shard:` comment
//! must argue every `static` item and every `Mutex`/`RwLock` construction
//! in the sharding and handle layers — such sites are ad-hoc state visible
//! to more than one partition, and coordination there is supposed to go
//! through snapshot publication instead. Not
//! compiled; consumed by the linter self-test. (The justification token
//! is only named at the top of this header, clear of every marker's
//! lookback window below.)

static ROUTE_EPOCH: u64 = 0; //~ ERROR cross-shard-state

fn coordinate_ad_hoc() {
    let registry = std::sync::Mutex::new(Vec::new()); //~ ERROR cross-shard-state
    drop(registry);
}

fn lookback_window_is_four_lines() {
    // shard: too far away — five lines above the construction site
    let _a = 1;
    let _b = 2;
    let _c = 3;
    let _d = 4;
    let cursor = std::sync::Mutex::new(0u64); //~ ERROR cross-shard-state
    drop(cursor);
}

// The same construction also trips `hot-path-lock` (fixtures run every
// rule), hence the second marker.
fn wrap_shared_scatter_state() {
    let stripes = std::sync::RwLock::new(0u64);
    //~^ ERROR cross-shard-state
    //~^^ ERROR hot-path-lock
    drop(stripes);
}

fn justified_same_line() {
    let threshold = std::sync::Mutex::new(0u64); // shard: one WAND threshold, admissible everywhere
    drop(threshold);
}

fn justified_by_lookback() {
    // shard: per-call scratch shared with no one; dropped before gather
    let scratch = std::sync::Mutex::new(Vec::new());
    drop(scratch);
}

fn lifetimes_and_type_mentions_are_not_state(m: &std::sync::Mutex<u64>) -> &'static str {
    // lock: fixture counter-example — O(1) copy of a shard-local counter
    let _guard = m.lock();
    "a 'static lifetime is not a static item"
}

#[cfg(test)]
mod tests {
    // Test code may coordinate however it likes: the mask exempts it.
    static TEST_EPOCH: u64 = 7;

    fn t() -> u64 {
        TEST_EPOCH
    }
}
