//! Result stamps: the code measured, the host it ran on, and whether a
//! stored reference result is comparable with this one.

use std::path::Path;

/// ISA flags that select kernel paths in `spg-nn`.
const ISA_FLAGS: [&str; 6] = ["sse2", "avx", "avx2", "fma", "avx512f", "avx512bw"];

/// CPU model, `nproc` and the ISA flags present, as one string.
pub fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let model = field("model name");
    let flags = field("flags");
    let present: Vec<&str> = ISA_FLAGS
        .iter()
        .copied()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{} | nproc={nproc} | isa={}",
        if model.is_empty() {
            "unknown-cpu"
        } else {
            &model
        },
        present.join(",")
    )
}

/// Cumulative `(steal, total)` CPU time of the host from `/proc/stat`:
/// time the hypervisor gave this VM's CPUs to someone else. A run on a
/// contended host is not comparable with one on a quiet host.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Steal as a share of CPU time between two [`cpu_times`] samples.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// FNV-1a over the sources the benchmark builds (sorted paths and
/// contents of `crates/`, `src/`, the root manifest and lock file): it
/// names the code measured even where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let body = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The git commit, when the tree is a git checkout.
pub fn commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_nproc_and_isa() {
        let f = fingerprint();
        assert!(f.contains("nproc="), "{f}");
        assert!(f.contains("isa="), "{f}");
    }

    #[test]
    fn steal_share_is_a_fraction_of_elapsed_cpu_time() {
        assert_eq!(steal_share((10, 1000), (30, 1200)), 0.1);
        assert_eq!(steal_share((10, 1000), (10, 1000)), 0.0);
        if let Some(t) = cpu_times() {
            assert!(t.0 <= t.1);
        }
    }

    #[test]
    fn digest_is_stable_and_tracks_content() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("digest-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/a.rs"), "fn a() {}").unwrap();
        let one = source_digest(&dir);
        assert_eq!(one, source_digest(&dir));
        std::fs::write(dir.join("src/a.rs"), "fn b() {}").unwrap();
        assert_ne!(one, source_digest(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
