//! Peak resident set size from `/proc/<pid>/status`.

/// Parses the `VmHWM:` (peak resident set) line of a `/proc/<pid>/status`
/// text into MiB. `None` when the line is missing or malformed — e.g. for
/// a zombie, whose status has no memory lines.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib as f64 / 1024.0),
        _ => None,
    }
}

/// Peak RSS of process `pid` ("self" for this process), MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_mib(&status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_in_mib() {
        let status =
            "Name:\thbm-serve\nVmPeak:\t  200000 kB\nVmHWM:\t   78848 kB\nVmRSS:\t   12000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(77.0));
    }

    #[test]
    fn missing_or_malformed_lines_are_none() {
        assert_eq!(
            parse_vm_hwm_mib("Name:\tzombie\nState:\tZ (zombie)\n"),
            None
        );
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 1024 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mib = peak_rss_mib("self").expect("linux exposes /proc/self/status");
        assert!(mib > 0.0);
    }
}
