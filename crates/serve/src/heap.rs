//! Resident-set hygiene for the worker pool.
//!
//! A large job's buffers — its match list, the emission ledger, the
//! stored resume prefix, the report copies handed to callers — run to
//! megabytes each and live for one job.  glibc's `malloc` gives a thread
//! that finds every arena busy an arena of its own (up to eight per
//! core) and keeps the pages freed in an arena resident for that arena's
//! later requests.  Workers, chunk threads and callers come and go, so
//! which arenas end up holding freed job buffers depends on thread
//! timing: the process's resident set wanders between runs of the same
//! load, with sticky ~100 MB jumps whenever another arena fills up (an
//! 8 MiB-document pool on two cores peaked anywhere from 350 to 600 MB
//! per runtime).  Capping `malloc` at one arena makes every thread share
//! one heap, so the next job reuses the pages the last one freed on
//! whichever thread it runs; the same load then peaks at ~200–250 MB.
//! The pool allocates per job and per 64 KiB window, never per event, so
//! the shared arena lock costs no measurable throughput.

#![allow(unsafe_code)]

/// glibc's `M_ARENA_MAX` parameter of `mallopt` (`<malloc.h>`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: std::ffi::c_int = -8;

/// Caps glibc's `malloc` at one arena (once per process); a no-op on
/// other allocators.
pub(crate) fn share_one_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static CAP: std::sync::Once = std::sync::Once::new();
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        // SAFETY: `mallopt` only sets an allocator parameter; glibc
        // takes its own lock, so any thread may call it at any time.
        CAP.call_once(|| unsafe {
            mallopt(M_ARENA_MAX, 1);
        });
    }
}
