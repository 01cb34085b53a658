//! CPU clocks: the calling thread's and the whole process's.
//!
//! A single-threaded call is timed on the CPU clock of the thread that
//! makes it, and a request to the in-process daemon on the clock of the
//! whole process (the client, the daemon's threads and the subscriber:
//! every thread that works on it). On an idle machine a call's CPU time
//! is its wall time less its waits for I/O; on a shared virtual machine
//! it also leaves out the stretches in which the host ran another guest
//! on the vCPU (steal) and the host's latency in waking an idle vCPU,
//! which move a wall-clock reading by tens of percent from one minute
//! to the next and have nothing to do with the code measured.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks are read through 64-bit Linux's clock_gettime");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` (same layout on
    // 64-bit Linux, checked above) that outlives the call, and `clock`
    // is one of the two clock ids defined here.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used so far.
pub fn thread_time() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have used so far.
pub fn process_time() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_not_sleep() {
        let start = thread_time();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_time() - start;
        let start = thread_time();
        let mut x = 0u64;
        while thread_time() - start < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < Duration::from_millis(10), "sleeping used {slept:?}");
        assert!(x > 0);
        let start = process_time();
        std::thread::spawn(|| {
            let start = thread_time();
            while thread_time() - start < Duration::from_millis(20) {
                std::hint::spin_loop();
            }
        })
        .join()
        .expect("the spinning thread does not panic");
        assert!(process_time() - start >= Duration::from_millis(20));
    }
}
