//! Resident-memory readings from `/proc/self/status`.

/// A `kB` field (`VmRSS`, `VmHWM`, …) of a `/proc/<pid>/status` text.
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        match parts.next() {
            Some("kB") | None => Some(value),
            Some(_) => None,
        }
    })
}

fn read_field(field: &str) -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_kb(&status, field).unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Current resident set size, KiB.
pub fn rss_kb() -> u64 {
    read_field("VmRSS")
}

/// Peak resident set size of this process, KiB.
pub fn hwm_kb() -> u64 {
    read_field("VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   80000 kB\n\
                          VmRSS:\t   71234 kB\nRssAnon:\t   60000 kB\nThreads:\t1\n";

    #[test]
    fn parses_kb_fields() {
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(71_234));
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(80_000));
        assert_eq!(status_kb(STATUS, "VmPeak"), Some(123_456));
    }

    #[test]
    fn field_names_match_whole_keys() {
        // `Rss` must not match `RssAnon`, and `VmRS` must not match `VmRSS`.
        assert_eq!(status_kb(STATUS, "Rss"), None);
        assert_eq!(status_kb(STATUS, "VmRS"), None);
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
        assert_eq!(status_kb("VmRSS:\t12 MB\n", "VmRSS"), None);
        assert_eq!(status_kb("VmRSS:\tlots kB\n", "VmRSS"), None);
    }

    #[test]
    fn live_process_reports_memory() {
        let rss = rss_kb();
        assert!(rss > 0);
        assert!(hwm_kb() >= rss);
    }
}
