//! Process probes: CPU time and peak resident memory of this process read
//! from procfs, peak heap memory counted by the benchmark's allocator, a
//! stopwatch that charges both wall and CPU time to the timed sections of
//! a pass, and the reference kernel that measures the host's speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Kernel clock ticks per second behind `/proc/self/stat`'s `utime` and
/// `stime`. Linux fixes this user-visible rate (`USER_HZ`) at 100.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds consumed so far by every thread of this
/// process (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i - 3].parse::<f64>().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / TICKS_PER_S
}

/// A `kB`-valued line of `/proc/self/status`, in megabytes.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("status line present")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The system allocator, counting the bytes allocated and not yet freed
/// and the most there ever were at once.
///
/// Peak resident memory is no measure of what the program needs on this
/// host: the same store run of the same seed peaks at 253 MB one time and
/// 295 MB the next, because which heap pages are resident depends on the
/// order in which freed chunks are reused, and the simulators free hash
/// maps in an order that is random per process. The bytes the program
/// holds at once depend only on what it allocates.
///
/// Counting costs two atomic operations per allocation, which slows the
/// allocation-heavy `store` workload by about a tenth, so it stops once
/// the peak has been read ([`stop_heap_count`]).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Relaxed throughout: the counters order nothing, and a peak read after
// the threads that allocated it have been joined sees it.
fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call goes to `System` with the caller's own arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Stop counting heap memory; returns the most this process held at once
/// until now, in MB.
pub fn stop_heap_count() -> f64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Accumulates the wall and CPU time of the sections it brackets.
#[derive(Debug, Default, Clone)]
pub struct Stopwatch {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Stopwatch {
    /// Run `f`, charging its wall and CPU time to this stopwatch; returns
    /// `f`'s result and the wall seconds it took.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed().as_secs_f64();
        self.wall_s += wall;
        self.cpu_s += cpu_seconds() - cpu0;
        (r, wall)
    }
}

/// A fixed reference kernel, independent of the code under test, that
/// says how fast the host runs at the moment: sort the same million
/// pseudo-random integers, on each of the workload's threads at once.
///
/// A shared cloud host moves between a fast state and slower ones as its
/// other tenants come and go, every few seconds and sometimes for longer
/// than a whole run (on the 2-vCPU KVM guest the benchmark was defined on,
/// the same fleet pass takes 2.3 s in one state and 3.6 s in another, and
/// the kernel 20 ms and 31 ms). The kernel runs before and after every
/// timed pass, so each pass is divided by the slowdown measured around it,
/// not by one figure for the whole run: the states change faster than a
/// run-wide median can follow.
pub struct Reference {
    bufs: Vec<Vec<u64>>,
    last: f64,
    times: Vec<f64>,
}

impl Reference {
    /// The kernel's time at the benchmark's reference speed: its median on
    /// the 2-vCPU Xeon (Sapphire Rapids) KVM guest the benchmark was
    /// defined on, in that host's fast state. Timings are reported as if
    /// the host always ran at this speed.
    pub const NOMINAL_S: f64 = 0.02;

    /// A kernel for a workload running on `threads` threads.
    pub fn new(threads: usize) -> Reference {
        let mut r = Reference {
            bufs: vec![vec![0; 1 << 20]; threads.max(1)],
            last: 0.0,
            times: Vec::new(),
        };
        r.last = r.measure();
        r
    }

    /// Run the kernel once on every thread; the mean time, in seconds.
    fn measure(&mut self) -> f64 {
        let t = if let [buf] = self.bufs.as_mut_slice() {
            sort_once(buf)
        } else {
            std::thread::scope(|s| {
                let runs: Vec<_> = self
                    .bufs
                    .iter_mut()
                    .map(|buf| s.spawn(|| sort_once(buf)))
                    .collect();
                let times: Vec<f64> = runs
                    .into_iter()
                    .map(|h| h.join().expect("the kernel does not panic"))
                    .collect();
                times.iter().sum::<f64>() / times.len() as f64
            })
        };
        self.times.push(t);
        t
    }

    /// How many times slower than the reference speed the host ran since
    /// the previous call: the kernel's time at both ends of that interval,
    /// averaged, over [`Reference::NOMINAL_S`].
    pub fn since_last(&mut self) -> f64 {
        let now = self.measure();
        let slowdown = (self.last + now) / 2.0 / Self::NOMINAL_S;
        self.last = now;
        slowdown
    }

    /// Every time the kernel took, in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// Fill `buf` with the same pseudo-random integers and time sorting them.
fn sort_once(buf: &mut [u64]) -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    let t0 = Instant::now();
    buf.sort_unstable();
    std::hint::black_box(&*buf);
    t0.elapsed().as_secs_f64()
}
