//! S1: D5 may not be waived in the service layer.

pub fn waived(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "x is set two lines up")] //~ E0453
    x.unwrap()
}
