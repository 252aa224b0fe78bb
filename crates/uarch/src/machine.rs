//! Architectural machine state: registers, sparse byte-addressed memory,
//! text image, privilege mode and address-space identity.
//!
//! The [`Machine`] holds the *committed* state of the simulated machine.
//! The pipeline maintains its own speculative view on top and only writes
//! back here at retirement, so a squash can never corrupt architectural
//! state.

use crate::isa::{Inst, Width, INST_BYTES, NUM_REGS, REG_ZERO};
use std::collections::HashMap;
use std::sync::Arc;

/// Privilege mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Userspace.
    User,
    /// Kernel.
    Kernel,
}

/// Address-space identifier; identifies the execution context (process /
/// container) for tagged microarchitectural structures and for Perspective's
/// speculation views.
pub type Asid = u16;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable memory backed by 4 KiB pages.
#[derive(Debug, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl SparseMemory {
    /// Fresh zeroed memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Read one byte (unmapped memory reads as zero).
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.pages
            .get(&(addr >> PAGE_SHIFT))
            .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Read a little-endian u64 (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            // Within one page: one page lookup instead of eight.
            return self.pages.get(&(addr >> PAGE_SHIFT)).map_or(0, |p| {
                u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"))
            });
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        u64::from_le_bytes(bytes)
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Read with an explicit access width.
    pub fn read(&self, addr: u64, width: Width) -> u64 {
        match width {
            Width::B => u64::from(self.read_u8(addr)),
            Width::Q => self.read_u64(addr),
        }
    }

    /// Write with an explicit access width.
    pub fn write(&mut self, addr: u64, value: u64, width: Width) {
        match width {
            Width::B => self.write_u8(addr, value as u8),
            Width::Q => self.write_u64(addr, value),
        }
    }

    /// Number of populated 4 KiB pages.
    pub fn populated_pages(&self) -> usize {
        self.pages.len()
    }
}

/// A dense, read-only text image: one slot per instruction address from
/// `base`, `None` for holes. Built once (the kernel image) and mapped by
/// every machine that runs it through [`Machine::map_text`], behind an
/// [`Arc`], instead of being copied into each machine.
#[derive(Debug, Default)]
pub struct TextTable {
    base: u64,
    slots: Vec<Option<Inst>>,
    len: usize,
}

impl TextTable {
    /// An empty table covering the addresses `[base, end)`.
    pub fn new(base: u64, end: u64) -> Self {
        let n = end.saturating_sub(base).div_ceil(INST_BYTES);
        TextTable {
            base,
            slots: vec![None; n as usize],
            len: 0,
        }
    }

    /// Place `inst` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the table or misaligned, or already
    /// holds an instruction.
    pub fn insert(&mut self, addr: u64, inst: Inst) {
        let slot = self
            .slot(addr)
            .unwrap_or_else(|| panic!("{addr:#x} is outside the text table"));
        let prev = self.slots[slot].replace(inst);
        assert!(prev.is_none(), "instruction at {addr:#x} placed twice");
        self.len += 1;
    }

    fn slot(&self, addr: u64) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        let slot = (off / INST_BYTES) as usize;
        (off % INST_BYTES == 0 && slot < self.slots.len()).then_some(slot)
    }

    /// The instruction at `addr`, if any.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<Inst> {
        self.slot(addr).and_then(|s| self.slots[s])
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no instruction.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The committed architectural state.
#[derive(Debug)]
pub struct Machine {
    regs: [u64; NUM_REGS],
    /// Data memory.
    pub mem: SparseMemory,
    /// Read-only text shared with other machines (the kernel image).
    shared_text: Arc<TextTable>,
    /// This machine's own text (user and extension programs); no address
    /// is in both layers.
    text: HashMap<u64, Inst>,
    /// Current privilege mode.
    pub mode: Mode,
    /// Current address-space / context identifier.
    pub asid: Asid,
    /// Program counter of the next instruction to commit.
    pub pc: u64,
    /// Kernel entry point used by `Syscall`.
    pub kernel_entry: u64,
    /// Userspace return address captured by the last committed `Syscall`.
    pub sysret_target: u64,
    /// Committed shadow call stack (precise resolution of `Ret`).
    pub call_stack: Vec<u64>,
    /// Syscall currently being serviced (set at `Syscall` commit, cleared
    /// at `Sysret` commit) — the dispatch-granularity context per-syscall
    /// ISVs switch on.
    pub cur_sysno: Option<u16>,
}

impl Machine {
    /// A machine with empty memory, user mode, ASID 0.
    pub fn new() -> Self {
        Machine {
            regs: [0; NUM_REGS],
            mem: SparseMemory::new(),
            shared_text: Arc::default(),
            text: HashMap::new(),
            mode: Mode::User,
            asid: 0,
            pc: 0,
            kernel_entry: 0,
            sysret_target: 0,
            call_stack: Vec::new(),
            cur_sysno: None,
        }
    }

    /// Read a register (`r0` reads zero).
    pub fn reg(&self, r: u8) -> u64 {
        if r == REG_ZERO {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Write a register (`r0` writes are discarded).
    pub fn set_reg(&mut self, r: u8, value: u64) {
        if r != REG_ZERO {
            self.regs[r as usize] = value;
        }
    }

    /// Snapshot of the whole register file (index 0 is always zero).
    pub fn regs(&self) -> [u64; NUM_REGS] {
        let mut r = self.regs;
        r[0] = 0;
        r
    }

    /// Install instructions into this machine's own text.
    ///
    /// # Panics
    ///
    /// Panics if an address is already occupied by a *different*
    /// instruction, in either text layer (overlapping identical installs
    /// are permitted so that shared stubs can be loaded twice).
    pub fn load_text(&mut self, insts: impl IntoIterator<Item = (u64, Inst)>) {
        for (addr, inst) in insts {
            let prev = match self.shared_text.get(addr) {
                Some(shared) => Some(shared),
                None => self.text.insert(addr, inst),
            };
            if let Some(prev) = prev {
                assert_eq!(prev, inst, "conflicting instruction at {addr:#x}");
            }
        }
    }

    /// Map a shared, read-only text table (a kernel image) under this
    /// machine's own text.
    ///
    /// # Panics
    ///
    /// Panics unless the machine holds no text yet: the layers stay
    /// disjoint because [`Machine::load_text`] checks the table first.
    pub fn map_text(&mut self, table: Arc<TextTable>) {
        assert_eq!(self.text_len(), 0, "map the shared text before any other");
        self.shared_text = table;
    }

    /// Fetch the instruction at `addr`, if mapped.
    #[inline]
    pub fn inst_at(&self, addr: u64) -> Option<Inst> {
        self.shared_text
            .get(addr)
            .or_else(|| self.text.get(&addr).copied())
    }

    /// Number of instructions in the text image, both layers.
    pub fn text_len(&self) -> usize {
        self.shared_text.len() + self.text.len()
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Inst;

    #[test]
    fn zero_register_semantics() {
        let mut m = Machine::new();
        m.set_reg(0, 99);
        assert_eq!(m.reg(0), 0);
        m.set_reg(5, 7);
        assert_eq!(m.reg(5), 7);
        assert_eq!(m.regs()[0], 0);
    }

    #[test]
    fn memory_round_trips() {
        let mut m = SparseMemory::new();
        m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u8(0x1000), 0x0d, "little endian low byte");
        // Straddles a page boundary.
        m.write_u64(0x1ffc, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x1ffc), 0x1122_3344_5566_7788);
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(0xdead_0000), 0);
        assert_eq!(m.populated_pages(), 0);
    }

    #[test]
    fn width_dispatch() {
        let mut m = SparseMemory::new();
        m.write(0x10, 0x1ff, Width::B);
        assert_eq!(m.read(0x10, Width::B), 0xff, "byte write truncates");
        m.write(0x20, 0x1ff, Width::Q);
        assert_eq!(m.read(0x20, Width::Q), 0x1ff);
    }

    #[test]
    fn text_conflicts_are_detected() {
        let mut m = Machine::new();
        m.load_text([(0x0, Inst::Nop)]);
        m.load_text([(0x0, Inst::Nop)]); // identical re-install OK
        assert_eq!(m.text_len(), 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.load_text([(0x0, Inst::Halt)]);
        }));
        assert!(result.is_err(), "conflicting install must panic");
    }

    #[test]
    fn shared_text_is_a_second_layer() {
        let mut table = TextTable::new(0x100, 0x110);
        table.insert(0x100, Inst::Nop);
        table.insert(0x108, Inst::Fence);
        assert_eq!(table.len(), 2);

        let mut m = Machine::new();
        m.map_text(Arc::new(table));
        m.load_text([(0x200, Inst::Halt), (0x108, Inst::Fence)]); // 0x108: identical to the table
        assert_eq!(m.text_len(), 3, "both layers count, shared entries once");
        assert_eq!(m.inst_at(0x108), Some(Inst::Fence));
        assert_eq!(m.inst_at(0x200), Some(Inst::Halt));
        assert_eq!(m.inst_at(0x104), None, "hole");
        assert_eq!(m.inst_at(0x102), None, "misaligned");
        assert_eq!(m.inst_at(0x110), None, "past the end");

        for conflict in [(0x108, Inst::Halt), (0x200, Inst::Nop)] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.load_text([conflict]);
            }));
            assert!(result.is_err(), "conflict at {:#x} must panic", conflict.0);
        }
    }
}
