//! Simulated main memory.
//!
//! A flat little-endian RAM. Program images are loaded at their base
//! address; the AES harness also uses direct `poke`/`peek` accessors to
//! stage inputs and read results without running loader code.

use crate::UarchError;

/// Flat byte-addressable RAM.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Allocates `size` bytes of zeroed RAM.
    pub fn new(size: u32) -> Memory {
        Memory {
            bytes: vec![0; size as usize],
        }
    }

    /// RAM size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    #[inline]
    fn check(&self, addr: u32, len: u32) -> Result<usize, UarchError> {
        let end = addr.checked_add(len).ok_or(UarchError::BadAddress(addr))?;
        if end as usize > self.bytes.len() {
            return Err(UarchError::BadAddress(addr));
        }
        Ok(addr as usize)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`UarchError::BadAddress`] if out of range.
    pub fn read_u8(&self, addr: u32) -> Result<u8, UarchError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Reads a little-endian halfword. The address is halfword-aligned by
    /// clearing bit 0 (the LSU aligns accesses; the align buffer handles
    /// extraction).
    pub fn read_u16(&self, addr: u32) -> Result<u16, UarchError> {
        let addr = addr & !1;
        let i = self.check(addr, 2)?;
        Ok(u16::from_le_bytes([self.bytes[i], self.bytes[i + 1]]))
    }

    /// Reads a little-endian word (address word-aligned by clearing the
    /// low two bits).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, UarchError> {
        let addr = addr & !3;
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.bytes[i],
            self.bytes[i + 1],
            self.bytes[i + 2],
            self.bytes[i + 3],
        ]))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`UarchError::BadAddress`] if out of range.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), UarchError> {
        let i = self.check(addr, 1)?;
        self.bytes[i] = value;
        Ok(())
    }

    /// Writes a little-endian halfword (aligned).
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), UarchError> {
        let addr = addr & !1;
        let i = self.check(addr, 2)?;
        self.bytes[i..i + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian word (aligned).
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), UarchError> {
        let addr = addr & !3;
        let i = self.check(addr, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), UarchError> {
        let i = self.check(addr, data.len() as u32)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], UarchError> {
        let i = self.check(addr, len)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// The aligned 32-bit word containing `addr` — what the data cache
    /// moves on every access, and therefore what the MDR holds even for
    /// sub-word operations (paper, Section 4.1).
    #[inline]
    pub fn containing_word(&self, addr: u32) -> Result<u32, UarchError> {
        self.read_u32(addr & !3)
    }

    /// Zeroes all memory.
    pub fn clear(&mut self) {
        self.bytes.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut mem = Memory::new(64);
        mem.write_u32(0, 0xdead_beef).unwrap();
        assert_eq!(mem.read_u32(0).unwrap(), 0xdead_beef);
        assert_eq!(mem.read_u8(0).unwrap(), 0xef, "little endian");
        assert_eq!(mem.read_u8(3).unwrap(), 0xde);
        assert_eq!(mem.read_u16(2).unwrap(), 0xdead);
        mem.write_u8(1, 0x00).unwrap();
        assert_eq!(mem.read_u32(0).unwrap(), 0xdead_00ef);
        mem.write_u16(2, 0x1234).unwrap();
        assert_eq!(mem.read_u32(0).unwrap(), 0x1234_00ef);
    }

    #[test]
    fn alignment_is_forced() {
        let mut mem = Memory::new(64);
        mem.write_u32(0, 0x0403_0201).unwrap();
        // Unaligned word read aligns down.
        assert_eq!(mem.read_u32(2).unwrap(), 0x0403_0201);
        assert_eq!(mem.read_u16(1).unwrap(), 0x0201);
    }

    #[test]
    fn bounds_are_checked() {
        let mem = Memory::new(16);
        assert!(mem.read_u8(15).is_ok());
        assert!(mem.read_u8(16).is_err());
        assert!(mem.read_u32(13).is_ok()); // aligns down to 12
        assert!(mem.read_u32(16).is_err());
        assert!(mem.read_u32(u32::MAX).is_err());
    }

    #[test]
    fn bulk_copy() {
        let mut mem = Memory::new(32);
        mem.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.read_bytes(4, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(mem.read_u32(4).unwrap(), 0x0403_0201);
        assert!(mem.write_bytes(30, &[0; 4]).is_err());
    }

    #[test]
    fn containing_word_for_subword_addresses() {
        let mut mem = Memory::new(16);
        mem.write_u32(8, 0xaabb_ccdd).unwrap();
        for addr in 8..12 {
            assert_eq!(mem.containing_word(addr).unwrap(), 0xaabb_ccdd);
        }
    }
}
