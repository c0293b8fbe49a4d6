//! Small shared pieces: `--flag value` arguments, process counters read
//! from `/proc`, percentiles, and the one-line JSON reports every
//! subcommand prints for `run.py`.

use entmatcher_support::json::{Json, Map, ToJson};
use std::collections::HashMap;
use std::time::Instant;

/// `--name value` options after the subcommand.
pub struct Args(HashMap<String, String>);

impl Args {
    pub fn parse(argv: &[String]) -> Args {
        let mut map = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .unwrap_or_else(|| fail(&format!("unexpected argument {flag:?}")));
            let value = it
                .next()
                .unwrap_or_else(|| fail(&format!("--{name} needs a value")));
            map.insert(name.to_owned(), value.clone());
        }
        Args(map)
    }

    pub fn str(&self, name: &str) -> &str {
        self.0
            .get(name)
            .unwrap_or_else(|| fail(&format!("missing --{name}")))
    }

    pub fn opt(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> T {
        let v = self.str(name);
        v.parse()
            .unwrap_or_else(|_| fail(&format!("--{name}: cannot parse {v:?}")))
    }
}

/// Prints the message and exits with a non-zero code.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1)
}

/// `VmHWM` (peak resident set) of a process in MB; `None` reads our own.
pub fn vm_hwm_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or_else(|| fail(&format!("no VmHWM in {path}")))
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// User + system CPU seconds this process has used, over all threads.
pub fn cpu_seconds() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields
        .get(11..13)
        .map(|f| f.iter().filter_map(|v| v.parse::<f64>().ok()).sum())
        .unwrap_or(0.0);
    // SAFETY: sysconf has no preconditions; _SC_CLK_TCK is 2 on Linux.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    ticks / hz
}

/// Wall and CPU time of one call, plus the peak RSS right after it.
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub hwm_mb: f64,
}

pub fn measure(f: impl FnOnce()) -> Measured {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    f();
    let wall_s = t0.elapsed().as_secs_f64();
    Measured {
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        hwm_mb: vm_hwm_mb(None),
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// A flat JSON object printed as the subcommand's last stdout line.
#[derive(Default)]
pub struct Report(Map);

impl Report {
    pub fn set(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.0.insert(key, value);
        self
    }

    pub fn print(self) {
        println!("{}", Json::Obj(self.0).dump());
    }
}
