//! D2: hash-ordered collections.

use std::collections::{BTreeMap, BTreeSet};

pub fn unordered() -> std::collections::HashMap<u32, u32> { //~ disallowed_types
    std::collections::HashMap::new() //~ disallowed_types
}

pub fn unordered_set() -> usize {
    std::collections::HashSet::<u32>::new().len() //~ disallowed_types
}

pub fn ordered() -> (BTreeMap<u32, u32>, BTreeSet<u32>) {
    (BTreeMap::new(), BTreeSet::new())
}
