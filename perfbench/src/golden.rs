//! Committed output digests at the default seed.
//!
//! One file per workload under `golden/`, one `key digest` pair a line:
//! an offline operation's name (`ooo.dense`, `yield`, …) or a request's
//! digest (`sys::digest` of `path + "\n" + body`), mapped to the digest of
//! the output bytes. The files are compiled in, so editing one rebuilds
//! the benchmark. `--bless` rewrites them from a default-seed run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::Workload;

fn text(workload: Workload) -> &'static str {
    match workload {
        Workload::Sweep => include_str!("../golden/sweep.txt"),
        Workload::YieldMc => include_str!("../golden/yield-mc.txt"),
        Workload::ServeMix => include_str!("../golden/serve-mix.txt"),
        Workload::RouteMix => include_str!("../golden/route-mix.txt"),
    }
}

fn path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", workload.name()))
}

/// Parses `key digest` lines; `#` starts a comment line.
#[must_use]
pub fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().to_string()))
        })
        .collect()
}

/// The committed digests of `workload`.
#[must_use]
pub fn load(workload: Workload) -> BTreeMap<String, String> {
    parse(text(workload))
}

/// Rewrites `workload`'s digest file.
///
/// # Panics
///
/// Panics if the file cannot be written: blessing is a maintainer action
/// whose failure must be loud.
pub fn write(workload: Workload, digests: &[(String, String)]) {
    let mut out = format!(
        "# Output digests of the {} workload at the default seed.\n# Regenerate with --bless after an intended output change.\n",
        workload.name()
    );
    for (k, v) in digests {
        out.push_str(&format!("{k} {v}\n"));
    }
    std::fs::write(path(workload), out).expect("golden digest file is writable");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let m = parse("# header\n\nooo.dense 0123456789abcdef\nyield fedcba9876543210\n");
        assert_eq!(m.len(), 2);
        assert_eq!(m["ooo.dense"], "0123456789abcdef");
    }

    #[test]
    fn every_workload_has_committed_digests() {
        for w in Workload::ALL {
            assert!(!load(w).is_empty(), "{} has no golden digests", w.name());
        }
    }
}
