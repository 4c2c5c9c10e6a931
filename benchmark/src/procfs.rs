//! Process CPU time and peak memory from `/proc`.

/// User + system CPU ticks from the text of `/proc/<pid>/stat`.
///
/// The second field is the command in parentheses and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second of `/proc` times: `USER_HZ`, which Linux fixes
/// at 100 for user space whatever the kernel's own tick rate.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_hwm_kib(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (xdp bench) x) R 1 4242 4242 0 -1 4194304 1503 0 0 0 \
        731 59 0 0 20 0 3 0 8812345 123456789 2890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_cpu_survives_spaces_and_parens_in_the_command() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 59));
        assert_eq!(parse_stat_cpu_ticks("1 (a) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_hwm() {
        let status = "Name:\tx\nVmPeak:\t  99999 kB\nVmHWM:\t   14336 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(14336));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
