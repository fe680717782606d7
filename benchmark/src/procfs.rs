//! CPU time and resident memory of a process, read from `/proc`.

use std::io;

/// Kernel clock ticks per second behind `/proc/<pid>/stat`'s `utime` and
/// `stime`. `USER_HZ` is 100 on every Linux ABI this repo builds for.
const CLK_TCK: u64 = 100;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is the executable name in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)`: `utime` and `stime` are fields 14 and 15 of the line, i.e.
/// the 12th and 13th after `comm`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (`VmHWM`, `VmRSS`, …) from the text of `/proc/<pid>/status`,
/// in bytes.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = value.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

fn read(pid: u32, file: &str) -> io::Result<String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}"))
}

fn malformed(pid: u32, file: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("/proc/{pid}/{file}: unexpected format"),
    )
}

/// CPU time (user + system, all threads) the process has consumed, in
/// microseconds.
pub fn cpu_micros(pid: u32) -> io::Result<u64> {
    let ticks = parse_stat_cpu_ticks(&read(pid, "stat")?).ok_or_else(|| malformed(pid, "stat"))?;
    Ok(ticks * (1_000_000 / CLK_TCK))
}

/// On-CPU time of every thread of the process in nanoseconds: the first
/// field of each `/proc/<pid>/task/<tid>/schedstat`. The scheduler's own
/// clock, so a 100 ms slice of a run resolves where `stat`'s 10 ms ticks
/// do not. `None` where the kernel does not export it.
pub fn cpu_nanos(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += parse_schedstat_run_nanos(&text)?;
    }
    Some(total)
}

/// The run time (first field) of a `schedstat` line.
pub fn parse_schedstat_run_nanos(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of the process, in bytes.
pub fn peak_rss_bytes(pid: u32) -> io::Result<u64> {
    parse_status_kb(&read(pid, "status")?, "VmHWM").ok_or_else(|| malformed(pid, "status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        // A comm with spaces and a `)` inside must not shift the fields.
        let stat = "4242 (homeo) tcp-0) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1_000));
        assert_eq!(parse_stat_cpu_ticks("4242 (short) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_fields_are_read_in_bytes() {
        let status =
            "Name:\thomeostasisd\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048 * 1024));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024 * 1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(
            parse_schedstat_run_nanos("435075499 49174260 1096\n"),
            Some(435_075_499)
        );
        assert_eq!(parse_schedstat_run_nanos(""), None);
        assert_eq!(parse_schedstat_run_nanos("x 1 2"), None);
    }

    #[test]
    fn the_running_process_reports_both() {
        let pid = std::process::id();
        assert!(peak_rss_bytes(pid).expect("own status") > 0);
        cpu_micros(pid).expect("own stat");
    }
}
