//! Simulated global memory: a flat word-addressed space with a bump
//! allocator and typed buffer handles.
//!
//! Words are plain `u32`s owned by the [`crate::Gpu`]. Every launch runs
//! on the calling thread, which holds the memory by `&mut` for the whole
//! launch, so a read-modify-write is an ordinary compare-then-store.

/// Handle to a device buffer: a base *word* address and a length in words.
///
/// Cheap to copy; kernels index buffers by element, and the warp context
/// translates to byte addresses for the cache model. Bounds are checked on
/// every simulated access (a fault aborts the simulation with a panic,
/// standing in for a CUDA illegal-address error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DevicePtr {
    pub(crate) base: u64,
    pub(crate) len: usize,
}

impl DevicePtr {
    /// Number of `u32` elements in the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of element `idx` (used by the cache model).
    #[inline]
    pub(crate) fn byte_addr(&self, idx: usize) -> u64 {
        (self.base + idx as u64) * 4
    }
}

/// Flat global memory backing all device buffers.
#[derive(Debug, Default)]
pub struct GlobalMemory {
    words: Vec<u32>,
}

impl GlobalMemory {
    /// Empty memory.
    pub fn new() -> Self {
        GlobalMemory { words: Vec::new() }
    }

    /// Flat index of element `idx`, panicking with the `"device {what}
    /// OOB"` text that `Gpu::classify_abort` turns into a memory fault.
    #[inline]
    fn slot(ptr: DevicePtr, idx: usize, what: &str) -> usize {
        assert!(
            idx < ptr.len,
            "device {what} OOB: idx {idx} >= len {}",
            ptr.len
        );
        ptr.base as usize + idx
    }

    /// Allocates a zero-initialized buffer of `len` words.
    pub fn alloc(&mut self, len: usize) -> DevicePtr {
        let base = self.words.len() as u64;
        self.words.resize(self.words.len() + len, 0);
        DevicePtr { base, len }
    }

    /// Allocates a buffer holding a copy of `data`.
    pub fn alloc_from(&mut self, data: &[u32]) -> DevicePtr {
        let base = self.words.len() as u64;
        self.words.extend_from_slice(data);
        DevicePtr {
            base,
            len: data.len(),
        }
    }

    /// Host-side read of a whole buffer (no cache traffic — models a
    /// `cudaMemcpy` outside the timed region, as the paper excludes
    /// transfer time).
    pub fn download(&self, ptr: DevicePtr) -> Vec<u32> {
        self.words[ptr.base as usize..ptr.base as usize + ptr.len].to_vec()
    }

    /// Host-side write of a whole buffer.
    pub fn upload(&mut self, ptr: DevicePtr, data: &[u32]) {
        assert_eq!(data.len(), ptr.len, "upload size mismatch");
        self.words[ptr.base as usize..ptr.base as usize + ptr.len].copy_from_slice(data);
    }

    /// Raw word read with bounds check.
    #[inline]
    pub fn read(&self, ptr: DevicePtr, idx: usize) -> u32 {
        self.words[Self::slot(ptr, idx, "read")]
    }

    /// Raw word write with bounds check.
    #[inline]
    pub fn write(&mut self, ptr: DevicePtr, idx: usize, v: u32) {
        self.words[Self::slot(ptr, idx, "write")] = v;
    }

    /// Real `atomicCAS`: installs `new` iff the word equals `cmp`; returns
    /// the pre-operation value either way.
    #[inline]
    pub fn cas(&mut self, ptr: DevicePtr, idx: usize, cmp: u32, new: u32) -> u32 {
        let w = &mut self.words[Self::slot(ptr, idx, "cas")];
        let old = *w;
        if old == cmp {
            *w = new;
        }
        old
    }

    /// Real `atomicAdd` (wrapping); returns the pre-add value.
    #[inline]
    pub fn fetch_add(&mut self, ptr: DevicePtr, idx: usize, v: u32) -> u32 {
        let w = &mut self.words[Self::slot(ptr, idx, "add")];
        let old = *w;
        *w = old.wrapping_add(v);
        old
    }

    /// Real `atomicMin`; returns the pre-min value.
    #[inline]
    pub fn fetch_min(&mut self, ptr: DevicePtr, idx: usize, v: u32) -> u32 {
        let w = &mut self.words[Self::slot(ptr, idx, "min")];
        let old = *w;
        *w = old.min(v);
        old
    }

    /// Total allocated words.
    pub fn allocated_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_and_disjoint() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(10);
        let b = m.alloc(10);
        m.write(a, 9, 7);
        assert_eq!(m.read(b, 0), 0, "buffers must not alias");
        assert_eq!(m.read(a, 9), 7);
        assert_eq!(m.allocated_words(), 20);
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut m = GlobalMemory::new();
        let data: Vec<u32> = (0..100).collect();
        let p = m.alloc_from(&data);
        assert_eq!(m.download(p), data);
        let newdata: Vec<u32> = (100..200).collect();
        m.upload(p, &newdata);
        assert_eq!(m.download(p), newdata);
    }

    #[test]
    fn rmw_primitives() {
        let mut m = GlobalMemory::new();
        let p = m.alloc_from(&[5, 10, 100]);
        assert_eq!(m.cas(p, 0, 5, 9), 5, "winning CAS returns old");
        assert_eq!(m.cas(p, 0, 5, 7), 9, "losing CAS returns current");
        assert_eq!(m.read(p, 0), 9);
        assert_eq!(m.fetch_add(p, 1, 3), 10);
        assert_eq!(m.read(p, 1), 13);
        assert_eq!(m.fetch_min(p, 2, 42), 100);
        assert_eq!(m.fetch_min(p, 2, 77), 42, "min is sticky");
        assert_eq!(m.read(p, 2), 42);
    }

    #[test]
    #[should_panic(expected = "OOB")]
    fn read_oob_panics() {
        let mut m = GlobalMemory::new();
        let p = m.alloc(4);
        m.read(p, 4);
    }

    #[test]
    #[should_panic(expected = "OOB")]
    fn write_oob_panics() {
        let mut m = GlobalMemory::new();
        let p = m.alloc(4);
        m.write(p, 100, 1);
    }

    #[test]
    fn byte_addresses_are_word_scaled() {
        let mut m = GlobalMemory::new();
        let _pad = m.alloc(3);
        let p = m.alloc(4);
        assert_eq!(p.byte_addr(0), 12);
        assert_eq!(p.byte_addr(2), 20);
    }

    #[test]
    fn empty_buffer() {
        let mut m = GlobalMemory::new();
        let p = m.alloc(0);
        assert!(p.is_empty());
        assert_eq!(m.download(p), Vec::<u32>::new());
    }
}
