//! Fixture: a clean file — ordered collections only, and a `#[cfg(test)]`
//! item whose `HashMap` is exempt (test code never reaches a report).

use std::collections::BTreeMap;

pub struct Entry {
    pub key: u64,
    pub value: u64,
}

pub fn index(entries: &[Entry]) -> BTreeMap<u64, u64> {
    entries.iter().map(|e| (e.key, e.value)).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn scratch_map_is_fine_here() {
        let mut m = HashMap::new();
        m.insert(1u64, 2u64);
        assert_eq!(m[&1], 2);
    }
}
