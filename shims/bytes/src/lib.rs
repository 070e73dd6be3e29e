//! Offline stand-in for the `bytes` crate.
//!
//! Provides the subset the workspace uses: [`Bytes`] (cheaply cloneable,
//! immutable, sliceable), [`BytesMut`] (growable builder), and the
//! [`BufMut`] write cursor. `Bytes` is a `(pointer, length)` window beside
//! the shared owner of the buffer it points into, so `clone` and `slice` are
//! O(1), `From<Vec<u8>>` / [`BytesMut::freeze`] adopt the
//! vector's allocation instead of copying it, `from_static` allocates
//! nothing, and `Deref` is one load — the same performance contract the real
//! crate gives the shuffle data plane.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::Arc;

/// A cheaply cloneable immutable byte string (window into a shared buffer).
#[derive(Clone)]
pub struct Bytes {
    /// First byte of the window.
    ptr: NonNull<u8>,
    /// Length of the window.
    len: usize,
    /// Keeps the buffer `ptr` points into alive; `None` for `'static` data.
    /// Never read through: the window is cached in `ptr`/`len` so `Deref`
    /// does not chase `Arc` → `Vec` → heap.
    owner: Option<Arc<Vec<u8>>>,
}

// SAFETY: `ptr` points into memory that is never written while any `Bytes`
// can reach it — a `'static` slice, or the heap buffer of the `Vec<u8>` in
// `owner`, which is only ever handed out behind `Arc` with no mutable access
// — and `owner` (`Option<Arc<Vec<u8>>>`) is itself `Send + Sync`. Sharing or
// moving a `Bytes` across threads therefore only shares immutable data.
unsafe impl Send for Bytes {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Bytes {}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from_static(&[])
    }
}

impl Bytes {
    /// An empty byte string.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice: no allocation, no copy.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            ptr: NonNull::from(bytes).cast(),
            len: bytes.len(),
            owner: None,
        }
    }

    /// Copies a slice into a fresh buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Length of the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-window `[at.start, at.end)` relative to this window.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len);
        Bytes {
            // SAFETY: `range.start <= self.len` was just checked, so the
            // offset stays inside (or one past the end of) the buffer
            // `self.ptr` points into.
            ptr: unsafe { self.ptr.add(range.start) },
            len: range.end - range.start,
            owner: self.owner.clone(),
        }
    }

    /// How many `Bytes` share this window's buffer (0 for `'static` data).
    /// Not in the published crate: tests use it to show a path holds a
    /// constant number of windows into a block, not some per record.
    pub fn strong_count(&self) -> usize {
        self.owner.as_ref().map_or(0, Arc::strong_count)
    }

    /// Copies the window out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: every constructor sets `ptr`/`len` to a sub-range of a live
        // slice — a `'static` one, or the initialised contents of the `Vec`
        // held (immutably, for as long as `self` lives) by `owner`, whose heap
        // buffer does not move when the `Vec` itself is moved into the `Arc`
        // — and `slice` only ever shrinks that range.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts the vector's allocation: no copy, the bytes stay where they are.
    fn from(v: Vec<u8>) -> Self {
        let owner = Arc::new(v);
        Bytes {
            ptr: NonNull::from(owner.as_slice()).cast(),
            len: owner.len(),
            owner: Some(owner),
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Write-cursor operations (implemented by [`BytesMut`]).
pub trait BufMut {
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::from_static(b"abd");
        assert!(a < b);
        assert_eq!(a, Bytes::from(b"abc".to_vec()));
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1u8; 1024]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
    }

    #[test]
    fn from_vec_and_freeze_adopt_the_buffer() {
        let v = vec![7u8; 4096];
        let addr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), addr, "From<Vec<u8>> must not copy");
        assert_eq!(b.len(), 4096);

        // Spare capacity (a builder that over-reserved) must not force a
        // shrinking reallocation either.
        let mut m = BytesMut::with_capacity(1 << 16);
        m.put_u32(0x0102_0304);
        m.put_u32(0x0506_0708);
        m.put_slice(b"payload");
        let addr = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), addr, "freeze must not copy");
        assert_eq!(&frozen[8..], b"payload");
    }

    #[test]
    fn from_static_borrows_the_static() {
        static WORD: &[u8] = b"infiniband";
        let a = Bytes::from_static(WORD);
        let b = Bytes::from_static(WORD);
        // Both point at the static itself: nothing was allocated or copied.
        assert_eq!(a.as_ptr(), WORD.as_ptr());
        assert_eq!(b.as_ptr(), WORD.as_ptr());
        assert_eq!(Bytes::from(WORD).as_ptr(), WORD.as_ptr());
        assert_eq!(Bytes::from("infiniband"), a);
        assert_eq!(a.slice(2..6).as_ref(), b"fini");
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default().as_ref(), b"");
    }

    #[test]
    fn windows_share_storage_and_outlive_their_parent() {
        let whole = Bytes::from(b"0123456789".to_vec());
        let base = whole.as_ptr();
        let mid = whole.slice(3..7);
        assert_eq!(mid.as_ptr(), base.wrapping_add(3));
        let head = whole.slice(0..4);
        let whole = whole.slice(4..10);
        assert_eq!(head.as_ptr(), base);
        assert_eq!(whole.as_ptr(), base.wrapping_add(4));
        assert_eq!(whole.clone().as_ptr(), whole.as_ptr());
        let empty_tail = whole.slice(6..6);
        assert!(empty_tail.is_empty());
        // A window keeps the buffer alive after every other handle is gone.
        drop((whole, head, empty_tail));
        assert_eq!(mid.as_ref(), b"3456");
        assert_eq!(mid.to_vec(), b"3456".to_vec());
    }

    #[test]
    fn eq_ord_hash_follow_content_not_storage() {
        use std::collections::hash_map::DefaultHasher;
        fn h(b: &Bytes) -> u64 {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        }
        let owned = Bytes::from(b"xxabcxx".to_vec()).slice(2..5);
        let stat = Bytes::from_static(b"abc");
        assert_eq!(owned, stat);
        assert_eq!(h(&owned), h(&stat));
        assert_eq!(h(&stat), {
            let mut s = DefaultHasher::new();
            b"abc"[..].hash(&mut s);
            s.finish()
        });
        assert_eq!(owned.cmp(&stat), std::cmp::Ordering::Equal);
        assert!(Bytes::new() < stat, "empty sorts first");
        assert!(stat < Bytes::from_static(b"abcd"), "prefix sorts first");
        assert!(
            Bytes::from_static(b"ab\xff") > stat,
            "bytes compare unsigned"
        );
        assert_eq!(stat, b"abc"[..]);
        assert_eq!(stat, *b"abc");
        assert_eq!(format!("{stat:?}"), "b\"abc\"");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "checks that `Bytes` is `Send`, which needs a second OS thread"
    )]
    fn bytes_cross_threads() {
        let b = Bytes::from(vec![5u8; 64]).slice(8..16);
        let sum: u32 = std::thread::scope(|s| {
            let t = s.spawn(|| b.iter().map(|&x| x as u32).sum());
            t.join().expect("reader thread")
        });
        assert_eq!(sum, 40);
    }
}
