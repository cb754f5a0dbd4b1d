//! Clocks, memory readings, sample statistics and the span recorder.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process (user + sys, every thread), in µs.
pub fn process_cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable struct with the layout of the C
    // `struct timespec` on 64-bit Linux, and the clock id is the kernel's
    // constant for process CPU time, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "process CPU clock is always available on Linux");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

fn status_kib(field: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("{field} missing from /proc/self/status")))
}

/// Resident memory at the start of a measured region.
pub struct MemMark {
    rss_kib: u64,
}

impl MemMark {
    /// Hands freed heap pages back to the kernel and resets the peak-RSS
    /// mark, so [`MemMark::growth_mib`] sees only what the region after
    /// this call touches, not what set-up or an earlier iteration left.
    pub fn start() -> io::Result<Self> {
        // SAFETY: glibc's malloc_trim only releases free heap pages; it
        // takes no pointers and is safe to call from any thread.
        unsafe { malloc_trim(0) };
        std::fs::write("/proc/self/clear_refs", "5")?;
        Ok(MemMark {
            rss_kib: status_kib("VmRSS")?,
        })
    }

    /// A peak read by [`peak_rss_kib`] minus the RSS at the mark, MiB.
    pub fn growth_mib(&self, peak_kib: u64) -> f64 {
        peak_kib.saturating_sub(self.rss_kib) as f64 / 1024.0
    }
}

/// Peak RSS since the last [`MemMark::start`], KiB.
pub fn peak_rss_kib() -> io::Result<u64> {
    status_kib("VmHWM")
}

/// Sleeps a short while inside a polling loop: long enough to leave the
/// two cores to the peer's threads, short enough to stamp commits within
/// a tenth of a millisecond.
pub fn nap() {
    std::thread::sleep(Duration::from_micros(50));
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Pooled samples of one quantity, for nearest-rank percentiles.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
    }

    /// Nearest-rank percentile; 0 for an empty distribution.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p)]
    }

    /// Samples strictly above the percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p) - 1
    }

    /// One report line: the value with its sample count, or why the
    /// percentile is not resolved (fewer than 10 samples beyond it).
    pub fn describe(&self, what: &str, p: f64, unit: &str) -> String {
        let beyond = self.beyond(p);
        if beyond >= 10 {
            format!(
                "{what} p{p}: {:.3} {unit} (n={}, {beyond} beyond)",
                self.pct(p),
                self.len()
            )
        } else {
            format!(
                "{what} p{p}: unresolved, only {beyond} of n={} samples beyond it (value {:.3} {unit})",
                self.len(),
                self.pct(p)
            )
        }
    }
}

/// One recorded call: the benchmark's own code wraps each call it makes
/// into a library crate, so spans never come from inside the crates.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Block number, tx index or iteration number, by span kind.
    pub key: u64,
}

/// In-memory span recorder. Off, [`Tracer::span`] is a plain call.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span<R>(&self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied(),
                key,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    pub fn total_spans(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Durations of every span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Self time of every span called `name` (its duration minus the
    /// part its child spans cover), summed, in µs.
    pub fn self_us(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns - child_ns[i]) as f64 / 1e3)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"key\":{}}}",
                s.name, s.start_ns, s.end_ns, s.key
            )?;
        }
        out.flush()
    }
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copies a directory tree of regular files.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Rounds of the calibration kernel per thread.
const CALIBRATION_ROUNDS: u64 = 12_000_000;

/// A fixed integer kernel: four chains of 64x64->128-bit multiplies,
/// the operation big-number field arithmetic is built from.
fn calibration_kernel(seed: u64) -> u64 {
    let mut x = [
        seed | 1,
        0x9e37_79b9_7f4a_7c15,
        0xd1b5_4a32_d192_ed03,
        0x8cb9_2ba7_2f3d_8dd7,
    ];
    for _ in 0..CALIBRATION_ROUNDS {
        for i in 0..4 {
            let p = u128::from(x[i]) * u128::from(x[(i + 1) % 4] | 1);
            x[i] = (p as u64) ^ ((p >> 64) as u64);
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

/// Host-speed calibration: the wall time and the process CPU time, both
/// ms, of the calibration kernel run on `threads` threads at once. The
/// kernel uses no crate under test, so it moves only with the host.
pub fn calibrate(threads: usize) -> (f64, f64) {
    let (t0, cpu0) = (Instant::now(), process_cpu_us());
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || std::hint::black_box(calibration_kernel(t as u64)));
        }
    });
    (ms(t0.elapsed()), (process_cpu_us() - cpu0) / 1e3)
}
