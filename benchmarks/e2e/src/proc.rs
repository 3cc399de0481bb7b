//! What the kernel says about this process — peak resident memory, bytes
//! handed to `write`, time spent runnable but waiting for a CPU — and what
//! two reference kernels say about the host's speed at this moment.

use std::hint::black_box;
use std::time::{Duration, Instant};

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MB, less the calibrator's table; a
/// fresh process per child is what makes this a per-child number.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0 - CALIBRATOR_MB)
}

/// Bytes this process has passed to write-like system calls (`wchar`):
/// WAL appends and snapshot rewrites show here whether or not the page cache
/// has reached the device yet.
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

/// Milliseconds the live threads of this process spent on a run queue
/// waiting for a CPU (second field of `schedstat`).  Large values mean the
/// host was busy with something else and timings from this child are
/// suspect.
pub fn cpu_wait_ms() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += text
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e6
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// Copies the regular files of `from` into a fresh `to` (the store's layout
/// is flat apart from the spill cache, which recovery clears anyway).
pub fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The calibrator's table: 4 Mi `u32`s, 16 MiB — four times a core's L2, so
/// a walk over it lives in the shared last-level cache and in memory, where
/// the neighbours' traffic is felt.
const CHASE_SLOTS: usize = 1 << 22;
const CHASE_LOADS: usize = 300_000;
const MAP_INSERTS: u64 = 40_000;
/// What the two reference kernels take on the 2-core container when the
/// host is quiet (ms).  A factor is a measured time over these, so it reads
/// ≈1 on a quiet host and up to ≈1.5 on a busy one.
const NOMINAL_CHASE_MS: f64 = 32.0;
const NOMINAL_MAP_MS: f64 = 7.0;
/// Resident memory of the calibrator's table, which every child holds from
/// start to end and which is not the program's.
pub const CALIBRATOR_MB: f64 = (CHASE_SLOTS * 4) as f64 / (1024.0 * 1024.0);
/// A calibration older than this is measured again before a sample starts.
const STALE: Duration = Duration::from_millis(5);

/// How fast the host is *right now*, as the program under test feels it.
///
/// This container shares its host's memory system with other tenants, and
/// their traffic slows the engine (hash and B-tree walks over tens of MB) by
/// up to half for seconds at a time, while register-only arithmetic does not
/// move at all (README, *The host factor*).  So every timed sample is
/// bracketed by two short reference kernels that suffer the same way — a
/// dependent random walk over a 16 MiB table, and a `BTreeMap` of small heap
/// rows built and scanned — and its wall time is divided by their mean
/// slow-down, the **host factor**.  Over a ten-minute sizing run this took
/// the run-to-run spread of a 20-second converge run from 4–13 % to 1.5–2.5 %.
pub struct Host {
    table: Vec<u32>,
    /// Seconds this process had lived before the first calibration began:
    /// the part of set-up that precedes it.
    pub startup_s: f64,
    last: f64,
    last_end: Instant,
    factors: Vec<f64>,
}

/// One timed stretch of work and the host factor around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub factor: f64,
}

impl Timed {
    /// Seconds the stretch would have taken on a quiet host.
    pub fn quiet_s(&self) -> f64 {
        self.wall_s / self.factor
    }
}

impl Host {
    pub fn new(born: Instant) -> Host {
        let startup_s = born.elapsed().as_secs_f64();
        // Written, not just allocated: untouched pages would all map to the
        // kernel's one zero page and the walk would never leave the L1.
        let table: Vec<u32> = (0..CHASE_SLOTS as u32).map(|i| i & black_box(0)).collect();
        let mut host = Host {
            table,
            startup_s,
            last: 1.0,
            last_end: Instant::now(),
            factors: Vec::new(),
        };
        host.calibrate();
        host
    }

    fn calibrate(&mut self) {
        // A full-period congruential walk; adding the (zero) entry just read
        // makes every load wait for the one before it.
        let t = Instant::now();
        let mut i = 0usize;
        for _ in 0..CHASE_LOADS {
            i = (i
                .wrapping_mul(1_664_525)
                .wrapping_add(1_013_904_223)
                .wrapping_add(self.table[i] as usize))
                & (CHASE_SLOTS - 1);
        }
        black_box(i);
        let chase_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let mut map = std::collections::BTreeMap::new();
        let mut x = 12_345u64;
        for _ in 0..MAP_INSERTS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            map.insert((x >> 40) as u32, vec![x; 2]);
        }
        black_box(
            map.iter()
                .fold(0u64, |sum, (k, v)| sum.wrapping_add(u64::from(*k) ^ v[0])),
        );
        drop(map);
        let map_ms = t.elapsed().as_secs_f64() * 1e3;
        self.last = (chase_ms / NOMINAL_CHASE_MS + map_ms / NOMINAL_MAP_MS) / 2.0;
        self.last_end = Instant::now();
        self.factors.push(self.last);
    }

    /// Runs `work` between two calibrations (the one before is reused when
    /// it has only just ended) and returns its wall time with the mean host
    /// factor of the two.
    pub fn timed<R>(&mut self, work: impl FnOnce() -> R) -> (R, Timed) {
        if self.last_end.elapsed() > STALE {
            self.calibrate();
        }
        let before = self.last;
        let t = Instant::now();
        let result = work();
        let wall_s = t.elapsed().as_secs_f64();
        self.calibrate();
        let factor = (before + self.last) / 2.0;
        (result, Timed { wall_s, factor })
    }

    /// The host factor as of now (measured again if the last calibration is
    /// stale): what an open-loop schedule is stretched by, so that it offers
    /// the same load to a slowed host as to a quiet one.
    pub fn factor_now(&mut self) -> f64 {
        if self.last_end.elapsed() > STALE {
            self.calibrate();
        }
        self.last
    }

    /// Median host factor over this process's calibrations.
    pub fn median_factor(&self) -> f64 {
        crate::stats::median(&self.factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_brackets_the_work_with_calibrations() {
        let mut host = Host::new(Instant::now());
        assert_eq!(host.factors.len(), 1);
        let (answer, timed) = host.timed(|| {
            std::thread::sleep(Duration::from_millis(20));
            42
        });
        assert_eq!(answer, 42);
        // The calibration before (fresh from `new`) was reused, one was
        // taken after; the work's own time is all that was timed.
        assert_eq!(host.factors.len(), 2);
        assert!((0.02..0.2).contains(&timed.wall_s), "{}", timed.wall_s);
        assert!((0.2..20.0).contains(&timed.factor), "{}", timed.factor);
        assert_eq!(timed.quiet_s(), timed.wall_s / timed.factor);
        // A stale calibration is not reused.
        std::thread::sleep(STALE * 2);
        host.timed(|| ());
        assert_eq!(host.factors.len(), 4);
    }
}
