//! Raw guest-physical memory.
//!
//! 4 KiB frames, each backed on first write. `GuestMemory` performs no
//! permission checks — those live in [`crate::rmp`] and are applied by
//! [`crate::machine::Machine`]'s checked accessors. Only the hypervisor
//! model and the "hardware" (page-table walker, VMSA save/restore) touch
//! memory raw.

/// Size of one guest page/frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Returns the guest frame number containing guest-physical address `gpa`.
pub const fn gfn_of(gpa: u64) -> u64 {
    gpa / PAGE_SIZE as u64
}

/// Returns the base guest-physical address of frame `gfn`.
pub const fn gpa_of(gfn: u64) -> u64 {
    gfn * PAGE_SIZE as u64
}

/// What an untouched frame reads as.
static ZERO_FRAME: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Guest-physical memory, backed frame by frame on first write: a frame
/// that was never written (or was scrubbed) holds no allocation and
/// reads as zeros, as a hypervisor backs guest RAM on first touch.
///
/// The accessors are `#[inline]` with the single-frame case split from
/// the spanning one: the page walker and every checked guest access go
/// through them.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    frames: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
}

impl GuestMemory {
    /// Creates `frames` zeroed 4 KiB frames.
    pub fn new(frames: usize) -> Self {
        GuestMemory { frames: vec![None; frames] }
    }

    /// Number of frames.
    pub fn frames(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Total size in bytes.
    pub fn len(&self) -> usize {
        self.frames.len() * PAGE_SIZE
    }

    /// Whether the memory is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether the byte range `[gpa, gpa+len)` is inside memory.
    #[inline]
    pub fn in_range(&self, gpa: u64, len: usize) -> bool {
        (gpa as usize).checked_add(len).map(|end| end <= self.len()).unwrap_or(false)
    }

    /// Raw read; panics on out-of-range (callers bound-check first).
    #[inline]
    pub fn read_raw(&self, gpa: u64, out: &mut [u8]) {
        let off = gpa as usize % PAGE_SIZE;
        if out.is_empty() || off + out.len() > PAGE_SIZE {
            return self.read_frames(gpa, out);
        }
        out.copy_from_slice(&self.frame(gfn_of(gpa))[off..off + out.len()]);
    }

    /// Raw write; panics on out-of-range (callers bound-check first).
    #[inline]
    pub fn write_raw(&mut self, gpa: u64, data: &[u8]) {
        let off = gpa as usize % PAGE_SIZE;
        if data.is_empty() || off + data.len() > PAGE_SIZE {
            return self.write_frames(gpa, data);
        }
        self.frame_mut(gfn_of(gpa))[off..off + data.len()].copy_from_slice(data);
    }

    /// [`GuestMemory::read_raw`] for any range, frame by frame.
    fn read_frames(&self, gpa: u64, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let at = gpa as usize + done;
            let off = at % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(out.len() - done);
            out[done..done + n].copy_from_slice(&self.frame(gfn_of(at as u64))[off..off + n]);
            done += n;
        }
    }

    /// [`GuestMemory::write_raw`] for any range, frame by frame.
    fn write_frames(&mut self, gpa: u64, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let at = gpa as usize + done;
            let off = at % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(data.len() - done);
            self.frame_mut(gfn_of(at as u64))[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Raw u64 read (little-endian, matching x86).
    #[inline]
    pub fn read_u64_raw(&self, gpa: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_raw(gpa, &mut b);
        u64::from_le_bytes(b)
    }

    /// Raw u64 write (little-endian).
    #[inline]
    pub fn write_u64_raw(&mut self, gpa: u64, value: u64) {
        self.write_raw(gpa, &value.to_le_bytes());
    }

    /// Borrow of one whole frame.
    #[inline]
    pub fn frame(&self, gfn: u64) -> &[u8; PAGE_SIZE] {
        self.frames[gfn as usize].as_deref().unwrap_or(&ZERO_FRAME)
    }

    /// Mutable borrow of one whole frame, backing it if untouched.
    #[inline]
    pub fn frame_mut(&mut self, gfn: u64) -> &mut [u8; PAGE_SIZE] {
        self.frames[gfn as usize].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Zeroes a frame (used when pages change ownership) by dropping its
    /// backing.
    pub fn scrub_frame(&mut self, gfn: u64) {
        self.frames[gfn as usize] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gfn_gpa_roundtrip() {
        assert_eq!(gfn_of(0), 0);
        assert_eq!(gfn_of(4095), 0);
        assert_eq!(gfn_of(4096), 1);
        assert_eq!(gpa_of(3), 3 * 4096);
        assert_eq!(gfn_of(gpa_of(77)), 77);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GuestMemory::new(4);
        m.write_raw(100, b"hello");
        let mut buf = [0u8; 5];
        m.read_raw(100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = GuestMemory::new(1);
        m.write_u64_raw(8, 0xdead_beef_cafe_babe);
        assert_eq!(m.read_u64_raw(8), 0xdead_beef_cafe_babe);
    }

    #[test]
    fn range_checks() {
        let m = GuestMemory::new(2);
        assert!(m.in_range(0, PAGE_SIZE * 2));
        assert!(!m.in_range(0, PAGE_SIZE * 2 + 1));
        assert!(!m.in_range(u64::MAX, 1));
        assert!(m.in_range(PAGE_SIZE as u64 * 2, 0));
    }

    #[test]
    fn untouched_frames_read_zero_and_writes_cross_frames() {
        let mut m = GuestMemory::new(3);
        assert_eq!(m.read_u64_raw(PAGE_SIZE as u64), 0);
        let data: Vec<u8> = (0..=255).cycle().take(PAGE_SIZE + 100).collect();
        m.write_raw(PAGE_SIZE as u64 - 50, &data);
        let mut back = vec![0u8; data.len()];
        m.read_raw(PAGE_SIZE as u64 - 50, &mut back);
        assert_eq!(back, data);
        assert!(m.frame(0)[..PAGE_SIZE - 50].iter().all(|&b| b == 0));
    }

    #[test]
    fn frame_views_and_scrub() {
        let mut m = GuestMemory::new(2);
        m.frame_mut(1)[0] = 0xaa;
        assert_eq!(m.frame(1)[0], 0xaa);
        m.scrub_frame(1);
        assert!(m.frame(1).iter().all(|&b| b == 0));
    }
}
