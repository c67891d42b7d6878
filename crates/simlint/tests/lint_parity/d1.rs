//! D1: wall-clock, thread and environment reads.

pub fn clock() -> f64 {
    let t0 = std::time::Instant::now(); //~ disallowed_methods disallowed_types
    t0.elapsed().as_secs_f64()
}

pub fn wall() -> std::time::SystemTime { //~ disallowed_types
    std::time::SystemTime::now() //~ disallowed_methods disallowed_types
}

pub fn reads(d: std::time::Duration) -> Option<String> {
    std::thread::sleep(d); //~ disallowed_methods
    drop(std::thread::spawn(|| ())); //~ disallowed_methods
    std::thread::scope(|_| ()); //~ disallowed_methods
    let _ = std::thread::available_parallelism(); //~ disallowed_methods
    let _ = std::env::var_os("X"); //~ disallowed_methods
    std::env::var("X").ok() //~ disallowed_methods
}

/// The simpar carve-out is a site-level expectation; it leaves the
/// clock banned on the next line.
pub fn pool() -> std::time::Duration {
    #[expect(clippy::disallowed_methods, reason = "the work pool spawns threads")]
    std::thread::scope(|_| ());
    std::time::Instant::now().elapsed() //~ disallowed_methods disallowed_types
}

// Instant::now() in a comment is invisible, and so is a string.
pub fn prose() -> (&'static str, f64) {
    let instantaneous_w = 3.0;
    ("Instant::now()", instantaneous_w)
}

#[cfg(test)]
mod tests {
    #[test]
    fn clock_reads_stay_banned_in_tests() {
        let _ = std::time::Instant::now(); //~ disallowed_methods disallowed_types
    }
}
