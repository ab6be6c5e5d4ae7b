//! # retroturbo-bench
//!
//! The benchmark harness: one binary per table/figure of the paper
//! (`src/bin/…`, printing the same rows/series the paper reports, TSV to
//! stdout) plus the `bench_*` binaries that write the `BENCH_*.json`
//! reports, each opening with the shared [`meta_json`] provenance block.
//!
//! Binaries default to a quick profile; set `RETRO_FULL=1` for the
//! paper-scale protocol (30 × 128-byte packets per point, §7.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Print a TSV header line.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Format a float compactly for TSV output.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 0.01 && x.abs() < 1e6 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Print one experiment banner with the paper artifact it regenerates.
pub fn banner(id: &str, what: &str) {
    eprintln!("# {id}: {what}");
    eprintln!(
        "# profile: {} (set RETRO_FULL=1 for the paper-scale protocol)",
        if std::env::var("RETRO_FULL")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
        {
            "FULL"
        } else {
            "quick"
        }
    );
}

/// The `"meta"` member every `BENCH_*.json` report opens with, so archived
/// numbers stay attributable to a host and a build: the backend the default
/// rows ran on, runtime SIMD/CPU-feature detection, the host's
/// `available_parallelism`, the git rev of the measured tree
/// (`git rev-parse --short HEAD` at run time, `"unknown"` without git) and
/// the quick flag. Returned as `  "meta": {…}` with no trailing comma.
pub fn meta_json(default_backend: &str, quick: bool) -> String {
    let feats = retroturbo_dsp::backend::cpu_features()
        .iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect::<Vec<_>>()
        .join(", ");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "  \"meta\": {{\n    \"default_backend\": \"{default_backend}\",\n    \"simd_available\": {},\n    \"cpu_features\": {{{feats}}},\n    \"available_parallelism\": {cores},\n    \"git_rev\": \"{}\",\n    \"quick\": {quick}\n  }}",
        retroturbo_dsp::backend::simd_available(),
        git_rev(),
    )
}

/// Short git rev of the working directory's checkout, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.1234");
        assert!(fmt(1e-7).contains('e'));
        assert!(fmt(1e9).contains('e'));
    }

    #[test]
    fn meta_block_is_a_json_member() {
        let doc = format!("{{\n{}\n}}", meta_json("scalar", true));
        for key in [
            "\"default_backend\": \"scalar\"",
            "\"simd_available\": ",
            "\"cpu_features\": {",
            "\"available_parallelism\": ",
            "\"git_rev\": \"",
            "\"quick\": true",
        ] {
            assert!(doc.contains(key), "{key} missing from {doc}");
        }
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
