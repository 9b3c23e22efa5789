//! Run metadata and the result printout.
//!
//! Every line but the last is for people: the host fingerprint, each
//! metric with its unit, value and sample count, and each correctness
//! check. The last line is the machine-readable JSON result.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (operations, repetitions or windows).
    pub samples: usize,
    /// How the value was taken (percentile used, what was counted).
    pub note: String,
}

impl Metric {
    /// A metric with its sample count and note.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize, note: &str) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.to_string(),
        }
    }
}

/// Host and run fingerprint printed with every result.
pub struct Host {
    /// Online CPUs.
    pub nproc: usize,
    /// Kernel threads the workload runs with (`PILOTE_THREADS`).
    pub threads: usize,
    /// GEMM SIMD tier in use.
    pub simd: &'static str,
    /// CPU model string.
    pub cpu: String,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl Host {
    /// Fingerprints this host for a workload run at `threads`.
    pub fn detect(threads: usize) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            simd: pilote_tensor::pack::active_simd().name(),
            cpu: cpu_model(),
            commit: git_commit(),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the f64; `+∞` (a latency made of
/// failed operations) prints as the largest finite double.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v > 0.0 {
        format!("{:?}", f64::MAX)
    } else if v < 0.0 {
        format!("{:?}", f64::MIN)
    } else {
        "0.0".to_string()
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Prints the human-readable report, then the JSON result as the last
/// line of standard output.
pub fn print(
    header: &str,
    host: &Host,
    metrics: &[Metric],
    checks: &[(String, bool)],
    attempted: usize,
    failed: usize,
) {
    println!("# {header}");
    println!(
        "# host nproc={} threads={} simd={} cpu={} commit={}",
        host.nproc,
        host.threads,
        host.simd,
        json_str(&host.cpu),
        host.commit
    );
    let share = failed as f64 / attempted.max(1) as f64;
    println!("# ops attempted={attempted} failed={failed} failed_share={share}");
    for m in metrics {
        println!(
            "metric {:<48} {:>22} {:<10} samples={:<8} {}",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    for (name, ok) in checks {
        println!("check {name} {}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = checks.iter().all(|(_, ok)| *ok);
    println!("{}", result_json(correct, attempted, failed, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let m = vec![
            Metric::new("latency_p50_ms", "ms", 1.25, 10, ""),
            Metric::new("a\"b", "s", f64::INFINITY, 1, ""),
        ];
        assert_eq!(
            result_json(true, 10, 1, &m),
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{\
             \"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"a\\\"b\":{\"value\":1.7976931348623157e308,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(1e-7), "1e-7");
    }
}
