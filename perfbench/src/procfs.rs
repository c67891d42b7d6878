//! Process figures from `/proc`: CPU time from `/proc/self/stat`, peak
//! resident memory from `/proc/self/status`, and the CPU model from
//! `/proc/cpuinfo`. Parsing is split from reading so it can be tested on
//! fixed text.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every mainstream architecture.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, so utime (14) and stime (15)
    // sit at offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set size in MB (`VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The first `model name` in the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// CPU seconds this process has used so far, all threads included
/// (threads that already exited too).
pub fn cpu_s() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat_cpu_s(&text).ok_or_else(|| "cannot parse /proc/self/stat".to_string())
}

/// Peak resident memory of this process so far, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_status_hwm_mb(&text).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU model of the host, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| parse_cpu_model(&t))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_from_the_last_parenthesis() {
        // A command name with a space and a parenthesis must not shift
        // the fields: utime 250 + stime 50 ticks = 3 s.
        let stat = "4242 (per fb) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 \
                    12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_hwm_is_read_in_megabytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(2.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_model_takes_the_first_entry() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.00GHz\n\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.00GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_s().expect("own stat") >= 0.0);
        assert!(peak_rss_mb().expect("own status") > 0.0);
    }
}
