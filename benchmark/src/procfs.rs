//! Host-side process and machine facts, read from `/proc` as plain text (no
//! `libc`): peak resident memory, the user/system CPU split, page faults,
//! load average and CPU model. Every parser takes the file's text, so the
//! tests run on fixtures.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ` is
/// 100 on every Linux architecture this benchmark can run on.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) in MB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time and fault counters of one process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

/// Parses `/proc/<pid>/stat` text. The command name (field 2) may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: state is field 3, `minflt` 10, `utime` 14, `stime` 15.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is field 3 (state).
    let field = |n: usize| fields.get(n - 3);
    Some(ProcStat {
        minor_faults: field(10)?.parse().ok()?,
        user_s: field(14)?.parse::<f64>().ok()? / CLK_TCK,
        sys_s: field(15)?.parse::<f64>().ok()? / CLK_TCK,
    })
}

/// 1-minute load average from `/proc/loadavg` text.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// First `model name` from `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// All CPUs' time so far, in ticks: `(total, steal)`, from the `cpu` line of
/// `/proc/stat` text (user nice system idle iowait irq softirq steal; the
/// guest columns after them are already counted in user and nice).
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks.iter().sum(), ticks[7]))
}

/// This process's peak resident set, MB (0 where `/proc` is unavailable).
pub fn self_vm_hwm_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// This process's CPU split and faults so far.
pub fn self_stat() -> ProcStat {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or(ProcStat {
            user_s: 0.0,
            sys_s: 0.0,
            minor_faults: 0,
        })
}

pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg(&s))
        .unwrap_or(0.0)
}

/// `(total, steal)` CPU ticks of the machine so far (zeros off Linux).
pub fn cpu_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .unwrap_or((0, 0))
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\trmr-benchmark\nUmask:\t0022\nVmPeak:\t  901234 kB\n\
                          VmSize:\t  801234 kB\nVmHWM:\t  835584 kB\nVmRSS:\t  123456 kB\n";

    // comm deliberately contains spaces and a ')' to exercise the rfind.
    const STAT: &str = "4242 (rmr bench) x) R 4241 4242 4241 34816 4242 4194304 \
                        20817 0 3 0 1234 567 0 0 20 0 1 0 8765432 923456789 208896 \
                        18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn vm_hwm_is_read_in_mb() {
        assert_eq!(parse_vm_hwm_mb(STATUS), Some(816.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(s.minor_faults, 20817);
        assert_eq!(s.user_s, 12.34);
        assert_eq!(s.sys_s, 5.67);
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn loadavg_and_cpu_model_parse() {
        assert_eq!(parse_loadavg("0.42 0.33 0.36 1/123 4567\n"), Some(0.42));
        assert_eq!(parse_loadavg(""), None);
        let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\n\
                       model name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\nprocessor\t: 1\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Intel(R) Xeon(R) CPU @ 2.20GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_column_of_the_cpu_line() {
        let stat = "cpu  717665 0 57238 1418710 4390 0 425 47170 0 0\n\
                    cpu0 358000 0 28000 709000 2000 0 200 23000 0 0\nintr 1 2 3\n";
        assert_eq!(parse_cpu_ticks(stat), Some((2_245_598, 47_170)));
        assert_eq!(parse_cpu_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_cpu_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn live_proc_reads_do_not_fail() {
        // On Linux these are real; elsewhere they fall back to zeros.
        assert!(self_vm_hwm_mb() >= 0.0);
        assert!(self_stat().user_s >= 0.0);
        assert!(loadavg_1m() >= 0.0);
        assert!(cpu_ticks().0 >= cpu_ticks().1);
        assert!(!cpu_model().is_empty());
    }
}
