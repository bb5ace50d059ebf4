use crate::SimError;

const PAGE_BITS: u32 = 16;
#[cfg(test)]
const PAGE_BYTES: usize = 1 << PAGE_BITS; // 64 KiB
/// Simulatable address space: 4 GiB (65536 pages), allocated lazily.
const MAX_PAGES: usize = 1 << 16;

/// Host allocation unit inside a page: 4 KiB. Pages track which of
/// their sub-blocks are materialized, so a trial that touches a few
/// hundred bytes of a page zeroes one sub-block, not 64 KiB — the
/// dominant setup cost when a batch materializes many lanes at once.
const SUB_BITS: u32 = 12;
const SUB_BYTES: usize = 1 << SUB_BITS;
const SUBS_PER_PAGE: usize = 1 << (PAGE_BITS - SUB_BITS);

/// Lazily materialized host storage for one 64 KiB guest page.
type Region = [Option<Box<[u8]>>; SUBS_PER_PAGE];

/// Sparse, page-granular byte-addressable memory.
///
/// Pages (64 KiB) are allocated on first touch, so tensor buffers placed
/// megabytes apart cost only the pages they actually use. Unwritten bytes
/// read as zero, which the loader exploits when materializing zero-padded
/// input tensors.
///
/// # Example
///
/// ```
/// use simtune_isa::Memory;
///
/// # fn main() -> Result<(), simtune_isa::SimError> {
/// let mut m = Memory::new();
/// m.write_f32(0x1000, 3.5)?;
/// assert_eq!(m.read_f32(0x1000)?, 3.5);
/// assert_eq!(m.read_f32(0x2000)?, 0.0); // untouched memory reads zero
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Memory {
    pages: Vec<Option<Box<Region>>>,
}

impl Memory {
    /// Creates an empty memory with no pages allocated.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of 64 KiB pages currently materialized (any sub-block).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    #[inline]
    fn page_index(addr: u64) -> Result<usize, SimError> {
        let idx = (addr >> PAGE_BITS) as usize;
        if idx >= MAX_PAGES {
            Err(SimError::MemoryFault { addr })
        } else {
            Ok(idx)
        }
    }

    /// The materialized 4 KiB sub-block containing `addr`, if any.
    /// `addr` must already be range-checked via [`Memory::page_index`].
    #[inline]
    fn sub(&self, addr: u64) -> Option<&[u8]> {
        let idx = (addr >> PAGE_BITS) as usize;
        let sub = ((addr as usize) >> SUB_BITS) & (SUBS_PER_PAGE - 1);
        self.pages.get(idx)?.as_ref()?[sub].as_deref()
    }

    /// The materialized 4 KiB sub-block containing `addr`, if any, for
    /// writing. `addr` must already be range-checked.
    #[inline]
    fn sub_if_present_mut(&mut self, addr: u64) -> Option<&mut [u8]> {
        let idx = (addr >> PAGE_BITS) as usize;
        let sub = ((addr as usize) >> SUB_BITS) & (SUBS_PER_PAGE - 1);
        self.pages.get_mut(idx)?.as_mut()?[sub].as_deref_mut()
    }

    /// The (zero-materialized-on-first-touch) 4 KiB sub-block containing
    /// `addr`. `addr` must already be range-checked.
    #[cold]
    fn sub_mut(&mut self, addr: u64) -> &mut [u8] {
        let idx = (addr >> PAGE_BITS) as usize;
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || None);
        }
        let region = self.pages[idx].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        let sub = ((addr as usize) >> SUB_BITS) & (SUBS_PER_PAGE - 1);
        region[sub].get_or_insert_with(|| vec![0u8; SUB_BYTES].into_boxed_slice())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    pub fn read_u8(&self, addr: u64) -> Result<u8, SimError> {
        Self::page_index(addr)?;
        Ok(self
            .sub(addr)
            .map(|p| p[(addr as usize) & (SUB_BYTES - 1)])
            .unwrap_or(0))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), SimError> {
        Self::page_index(addr)?;
        self.sub_mut(addr)[(addr as usize) & (SUB_BYTES - 1)] = value;
        Ok(())
    }

    /// Reads a little-endian f32.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> Result<f32, SimError> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Writes a little-endian f32.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, value: f32) -> Result<(), SimError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian i64.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    #[inline]
    pub fn read_i64(&self, addr: u64) -> Result<i64, SimError> {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(i64::from_le_bytes(b))
    }

    /// Writes a little-endian i64.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    #[inline]
    pub fn write_i64(&mut self, addr: u64, value: i64) -> Result<(), SimError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Copies `buf.len()` bytes out of memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    #[inline]
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), SimError> {
        // Fast path: within one sub-block.
        let off = (addr as usize) & (SUB_BYTES - 1);
        if off + buf.len() <= SUB_BYTES {
            Self::page_index(addr)?;
            Self::page_index(addr + buf.len().max(1) as u64 - 1)?;
            match self.sub(addr) {
                Some(p) => buf.copy_from_slice(&p[off..off + buf.len()]),
                None => buf.fill(0),
            }
            return Ok(());
        }
        self.read_across(addr, buf)
    }

    /// [`Memory::read_bytes`] across sub-blocks: one sub-block's worth
    /// at a time.
    #[cold]
    fn read_across(&self, addr: u64, buf: &mut [u8]) -> Result<(), SimError> {
        Self::page_index(addr)?;
        Self::page_index(addr + buf.len() as u64 - 1)?;
        let mut addr = addr;
        let mut rest = &mut buf[..];
        while !rest.is_empty() {
            let off = (addr as usize) & (SUB_BYTES - 1);
            let n = rest.len().min(SUB_BYTES - off);
            let (head, tail) = rest.split_at_mut(n);
            match self.sub(addr) {
                Some(p) => head.copy_from_slice(&p[off..off + n]),
                None => head.fill(0),
            }
            addr += n as u64;
            rest = tail;
        }
        Ok(())
    }

    /// Copies `bytes` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SimError> {
        // Fast path: within one materialized sub-block.
        let off = (addr as usize) & (SUB_BYTES - 1);
        if off + bytes.len() <= SUB_BYTES {
            Self::page_index(addr)?;
            Self::page_index(addr + bytes.len().max(1) as u64 - 1)?;
            let range = off..off + bytes.len();
            match self.sub_if_present_mut(addr) {
                Some(p) => p[range].copy_from_slice(bytes),
                None => self.sub_mut(addr)[range].copy_from_slice(bytes),
            }
            return Ok(());
        }
        self.write_across(addr, bytes)
    }

    /// [`Memory::write_bytes`] across sub-blocks: one sub-block's worth
    /// at a time.
    #[cold]
    fn write_across(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SimError> {
        Self::page_index(addr)?;
        Self::page_index(addr + bytes.len() as u64 - 1)?;
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr as usize) & (SUB_BYTES - 1);
            let n = rest.len().min(SUB_BYTES - off);
            self.sub_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            addr += n as u64;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Reads `count` consecutive f32 values starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    pub fn read_f32_slice(&self, addr: u64, count: usize) -> Result<Vec<f32>, SimError> {
        (0..count)
            .map(|i| self.read_f32(addr + 4 * i as u64))
            .collect()
    }

    /// Writes consecutive f32 values starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] beyond the address space.
    pub fn write_f32_slice(&mut self, addr: u64, values: &[f32]) -> Result<(), SimError> {
        // Stage little-endian bytes on the stack and write whole chunks:
        // loading a trial's tensor segments is on every simulation's
        // setup path, and one `write_bytes` per chunk beats one
        // range-checked 4-byte write per element.
        let mut buf = [0u8; 512];
        for (ci, chunk) in values.chunks(buf.len() / 4).enumerate() {
            for (i, v) in chunk.iter().enumerate() {
                buf[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
            }
            self.write_bytes(addr + (ci * buf.len()) as u64, &buf[..4 * chunk.len()])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0).unwrap(), 0);
        assert_eq!(m.read_f32(12345).unwrap(), 0.0);
        assert_eq!(m.read_i64(999).unwrap(), 0);
    }

    #[test]
    fn roundtrip_scalars() {
        let mut m = Memory::new();
        m.write_f32(100, -2.25).unwrap();
        m.write_i64(200, -77).unwrap();
        assert_eq!(m.read_f32(100).unwrap(), -2.25);
        assert_eq!(m.read_i64(200).unwrap(), -77);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (PAGE_BYTES - 2) as u64; // i64 straddles page 0/1
        m.write_i64(addr, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.read_i64(addr).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn fault_beyond_address_space() {
        let mut m = Memory::new();
        let bad = (MAX_PAGES as u64) << PAGE_BITS;
        assert!(matches!(m.read_u8(bad), Err(SimError::MemoryFault { .. })));
        assert!(matches!(
            m.write_u8(bad, 1),
            Err(SimError::MemoryFault { .. })
        ));
    }

    #[test]
    fn slice_roundtrip() {
        let mut m = Memory::new();
        let vals = vec![1.0f32, -2.0, 3.5, 0.0, 9.25];
        m.write_f32_slice(4096, &vals).unwrap();
        assert_eq!(m.read_f32_slice(4096, 5).unwrap(), vals);
    }

    #[test]
    fn pages_allocate_lazily() {
        let mut m = Memory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write_u8(0, 1).unwrap();
        m.write_u8((10 << PAGE_BITS) + 5, 1).unwrap();
        assert_eq!(m.resident_pages(), 2);
    }
}
