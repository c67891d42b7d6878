//! D5: panics in non-test code, and clippy's own waiver rules.

pub fn panics(x: Option<u32>, y: Result<u32, String>) -> u32 {
    let a = x.unwrap(); //~ unwrap_used
    let b = y.expect("y is Ok"); //~ expect_used
    a + b
}

pub fn fallbacks(x: Option<u32>, y: Option<u32>) -> u32 {
    x.unwrap_or(0) + y.unwrap_or_else(|| x.map_or(1, |v| v / 2)) + y.unwrap_or_default()
}

#[expect(clippy::unwrap_used, reason = "x is checked by the caller")]
pub fn waived(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[allow(clippy::unwrap_used)] //~ allow_attributes_without_reason
pub fn unexplained(x: Option<u32>) -> u32 {
    x.unwrap()
}

// The negative control: an expectation with nothing to expect fails.
#[expect(clippy::unwrap_used, reason = "nothing here unwraps")] //~ unfulfilled_lint_expectations
pub fn stale() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_are_test_idiom() {
        let v: Option<u32> = "1".parse().ok();
        assert_eq!(v.unwrap(), 1);
        assert_eq!(v.ok_or("none").expect("parsed"), 1);
    }
}
