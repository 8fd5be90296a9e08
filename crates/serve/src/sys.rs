//! The crate's one foreign call: `poll(2)`, from the C library that std
//! already links on every Unix target, so waiting on socket readiness
//! needs no new dependency.
//!
//! This is the only module in `match-serve` allowed to hold `unsafe`
//! code (the crate denies it everywhere else, and CI greps for it).

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readiness to read (or accept, or read EOF).
pub(crate) const POLLIN: i16 = 0x001;
/// Readiness to write.
pub(crate) const POLLOUT: i16 = 0x004;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// One `struct pollfd`: a descriptor, the events asked for, and the
/// events `poll` reported.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Wait on `fd` for `events`. With `events == 0` the slot is
    /// skipped: `poll` ignores a negative descriptor, so an idle socket
    /// can keep its place without error or hang-up events waking the
    /// caller.
    pub(crate) fn new(fd: &impl AsRawFd, events: i16) -> Self {
        PollFd {
            fd: if events == 0 { -1 } else { fd.as_raw_fd() },
            events,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] reported any event on this slot
    /// (including errors and hang-ups, which a read or write reports).
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until a slot in `fds` is ready or `timeout` passes (`None`
/// waits without bound). Returns how many slots are ready; a wait cut
/// short by a signal returns 0.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = timeout.map_or(-1, |d| {
        // Round up, so a sub-millisecond wait does not become a spin.
        d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // records laid out as `struct pollfd`, valid for the whole call,
    // and `nfds` is its length; `poll` reads them and writes only their
    // `revents` fields. A stale or negative descriptor is reported as
    // `POLLNVAL` or skipped, never dereferenced.
    let n = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_readable_and_times_out() {
        let (a, mut b) = UnixStream::pair().expect("socket pair");
        let mut fds = [PollFd::new(&a, POLLIN)];
        let start = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert!(!fds[0].ready());

        b.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
    }

    #[test]
    fn a_slot_with_no_interest_is_skipped() {
        let (a, b) = UnixStream::pair().expect("socket pair");
        drop(b); // a hang-up would wake a live slot
        let mut fds = [PollFd::new(&a, 0)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert!(!fds[0].ready());
    }
}
