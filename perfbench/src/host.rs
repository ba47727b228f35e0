//! The host a result was measured on: core count, build profile, git
//! revision, compiler and date.

use std::time::{SystemTime, UNIX_EPOCH};

use lisa_metrics::json::escape;

/// Host metadata recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Git revision of the checkout, or `unknown` outside a git tree.
    pub git: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// UTC date and time of the run.
    pub date: String,
}

impl Host {
    /// Probes the current host; the git revision is read from `.git` in
    /// the working directory (the checkout root).
    #[must_use]
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            profile: env!("PERFBENCH_PROFILE"),
            git: git_revision().unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("PERFBENCH_RUSTC"),
            date: utc_now(),
        }
    }

    /// One `key=value` line.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} profile={} git={} rustc=\"{}\" date={}",
            self.nproc, self.profile, self.git, self.rustc, self.date
        )
    }

    /// The same fields as a JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"profile\": {}, \"git\": {}, \"rustc\": {}, \"date\": {}}}",
            self.nproc,
            escape(self.profile),
            escape(&self.git),
            escape(self.rustc),
            escape(&self.date)
        )
    }
}

/// Resolves `.git/HEAD` to a commit id without running git.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => match std::fs::read_to_string(format!(".git/{name}")) {
            Ok(id) => id.trim().to_owned(),
            Err(_) => std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_owned()))?,
        },
        None => head.to_owned(),
    };
    rev.chars().all(|c| c.is_ascii_hexdigit()).then(|| rev.chars().take(12).collect())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, rem % 3600 / 60, rem % 60)
}

/// Days since 1970-01-01 to a proleptic Gregorian date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }

    #[test]
    fn host_line_names_every_field() {
        let line = Host::probe().line();
        for key in ["nproc=", "profile=", "git=", "rustc=", "date="] {
            assert!(line.contains(key), "{line}");
        }
    }
}
