//! Simulated main memory.
//!
//! A flat little-endian RAM. Program images are loaded at their base
//! address; the AES harness also uses direct `poke`/`peek` accessors to
//! stage inputs and read results without running loader code.
//!
//! Once a checkpoint has been taken, every write also goes to a
//! dirty-word log: the words written since the last checkpoint, each
//! with its value there. The log restores the checkpoint in O(words
//! written) — a campaign returns each lane to its template at every
//! trace start — and tells, in the same time, whether memory still holds
//! what it held at a mark (whether the next execution starts where the
//! last walk did). Memory never checkpointed (a template being loaded
//! and warmed) logs nothing.

use crate::UarchError;

/// Flat byte-addressable RAM.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    /// The words written since the checkpoint, each with its value
    /// there, in first-write order.
    dirty: Vec<(u32, u32)>,
    /// One bit per word: whether it is in `dirty`; empty until the
    /// first checkpoint, and no write is logged while it is.
    logged: Vec<u64>,
    /// The values of `dirty[..marked.len()]` at the mark.
    marked: Vec<u32>,
}

impl Memory {
    /// Allocates `size` bytes of zeroed RAM.
    pub fn new(size: u32) -> Memory {
        Memory {
            bytes: vec![0; size as usize],
            dirty: Vec::new(),
            logged: Vec::new(),
            marked: Vec::new(),
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

    /// The word at word index `word`; bytes past the end of an odd-sized
    /// RAM read as zero.
    fn word(&self, word: usize) -> u32 {
        let mut bytes = [0; 4];
        let start = word * 4;
        let end = (start + 4).min(self.bytes.len());
        bytes[..end - start].copy_from_slice(&self.bytes[start..end]);
        u32::from_le_bytes(bytes)
    }

    /// Logs the words overlapping bytes `start..end` (in range) before a
    /// write changes them: each word's first write since the checkpoint
    /// records its value there.
    #[inline]
    fn log(&mut self, start: usize, end: usize) {
        if self.logged.is_empty() {
            return;
        }
        for word in start / 4..end.div_ceil(4) {
            let (slot, bit) = (word / 64, 1u64 << (word % 64));
            if self.logged[slot] & bit == 0 {
                self.logged[slot] |= bit;
                self.dirty.push((word as u32, self.word(word)));
            }
        }
    }

    /// Makes the current contents the checkpoint: the dirty-word log
    /// starts empty (and logging starts, at the first checkpoint).
    pub(crate) fn checkpoint(&mut self) {
        if self.logged.is_empty() {
            self.logged = vec![0; self.bytes.len().div_ceil(4).div_ceil(64)];
        }
        for &(word, _) in &self.dirty {
            self.logged[word as usize / 64] &= !(1u64 << (word % 64));
        }
        self.dirty.clear();
        self.marked.clear();
    }

    /// Returns every word written since the checkpoint to its value
    /// there, and empties the log.
    pub(crate) fn restore(&mut self) {
        for &(word, value) in &self.dirty {
            let start = word as usize * 4;
            let end = (start + 4).min(self.bytes.len());
            self.bytes[start..end].copy_from_slice(&value.to_le_bytes()[..end - start]);
        }
        self.checkpoint();
    }

    /// Remembers the current contents of the words written since the
    /// checkpoint: [`Memory::unchanged_since_mark`] compares against
    /// them.
    pub(crate) fn mark(&mut self) {
        let mut marked = std::mem::take(&mut self.marked);
        marked.clear();
        marked.extend(self.dirty.iter().map(|&(word, _)| self.word(word as usize)));
        self.marked = marked;
    }

    /// Whether every word holds the value it held at the last mark (the
    /// checkpoint, when none was taken since): the words first written
    /// after the mark still held their checkpoint value there.
    pub(crate) fn unchanged_since_mark(&self) -> bool {
        let (before, after) = self.dirty.split_at(self.marked.len());
        before
            .iter()
            .zip(&self.marked)
            .all(|(&(word, _), &value)| self.word(word as usize) == value)
            && after
                .iter()
                .all(|&(word, value)| self.word(word as usize) == value)
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
        self.log(i, i + 1);
        self.bytes[i] = value;
        Ok(())
    }

    /// Writes a little-endian halfword (aligned).
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), UarchError> {
        let addr = addr & !1;
        let i = self.check(addr, 2)?;
        self.log(i, i + 2);
        self.bytes[i..i + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian word (aligned).
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), UarchError> {
        let addr = addr & !3;
        let i = self.check(addr, 4)?;
        self.log(i, i + 4);
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), UarchError> {
        let i = self.check(addr, data.len() as u32)?;
        self.log(i, i + data.len());
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
    fn restore_returns_every_written_word_to_the_checkpoint() {
        let mut mem = Memory::new(30);
        mem.write_u32(4, 0x1111_1111).unwrap();
        mem.write_u8(29, 0x5a).unwrap();
        assert!(
            mem.dirty.is_empty(),
            "nothing is logged before a checkpoint"
        );
        mem.checkpoint();
        let template = mem.bytes.clone();
        mem.write_u32(4, 0x2222_2222).unwrap();
        mem.write_u8(5, 0x33).unwrap();
        mem.write_u16(14, 0xbeef).unwrap();
        mem.write_bytes(19, &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 7])
            .unwrap();
        assert_eq!(mem.dirty.len(), 6, "words 1, 3, 4..=7");
        mem.restore();
        assert_eq!(mem.bytes, template);
        assert!(mem.dirty.is_empty() && mem.logged.iter().all(|&b| b == 0));
        // The checkpoint stays: a second trace restores to it again.
        mem.write_u8(0, 1).unwrap();
        mem.restore();
        assert_eq!(mem.bytes, template);
    }

    #[test]
    fn unchanged_since_mark_sees_every_word_written_since() {
        let mut mem = Memory::new(64);
        mem.write_u32(0, 7).unwrap();
        mem.checkpoint();
        mem.write_u32(8, 1).unwrap();
        mem.mark();
        assert!(mem.unchanged_since_mark());
        // A word first written after the mark, then put back.
        mem.write_u32(16, 5).unwrap();
        assert!(!mem.unchanged_since_mark());
        mem.write_u32(16, 0).unwrap();
        assert!(mem.unchanged_since_mark());
        // A word written before the mark must hold its marked value.
        mem.write_u8(9, 3).unwrap();
        assert!(!mem.unchanged_since_mark());
        mem.write_u32(8, 1).unwrap();
        assert!(mem.unchanged_since_mark());
        mem.write_u32(0, 8).unwrap();
        assert!(!mem.unchanged_since_mark(), "word 0 was 7 at the mark");
        // Without a mark, the checkpoint is the reference.
        mem.restore();
        mem.write_u32(0, 7).unwrap();
        assert!(mem.unchanged_since_mark());
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
