//! The system-support stack of Section 5 end-to-end: a field-scan kernel
//! written with the `sload` ISA extension (5.1.2), over an address space
//! whose pages carry the stride-mode attribute (5.2, Figure 10).
//!
//! ```text
//! cargo run --release --example isa_kernel
//! ```

use sam::design::Granularity;
use sam::isa::{field_scan_kernel, Stop};
use sam::os::{AddressSpace, PAGE_BYTES};

fn main() {
    // 1. The IMDB maps a 64KB record region and flags it for stride mode —
    //    the madvise-style call Section 5.2's kernel module would expose.
    let mut vm = AddressSpace::new(0x1000_0000, Granularity::Bits4);
    let vbase = 0x7000_0000u64;
    let len = 16 * PAGE_BYTES;
    vm.mmap(vbase, len, false, false).expect("fresh mapping");
    vm.set_stride_mode(vbase, len, true).expect("mapped range");
    println!(
        "mapped {len} bytes at {vbase:#x}; stride-mode pages: {}",
        vm.is_stride_page(vbase)
    );

    // 2. A scan kernel over 32 records of 1KB, summing field 9 (offset 72)
    //    with `sload` — the two-instruction ISA extension of Section 5.1.2.
    //    The program runs on *virtual* addresses, like any user program.
    let records = 32u16;
    let (program, mut machine) = field_scan_kernel(vbase, 1024, 72, records, true);
    println!(
        "kernel: {} instructions, {} bytes of machine code",
        program.insts().len(),
        program.assemble().len() * 4
    );

    // 3. Load the field values (virtual view) and run.
    let mut expected = 0u64;
    for r in 0..records as u64 {
        let value = r * r + 1;
        machine.poke(vbase + r * 1024 + 72, value);
        expected = expected.wrapping_add(value);
    }
    let stop = machine.run(&program, 10_000);
    assert_eq!(stop, Stop::Halted);
    assert_eq!(machine.reg(3), expected, "sload kernel computes the sum");
    println!(
        "executed: {stop:?}; kernel sum = {:#x} (expected {expected:#x})",
        machine.reg(3)
    );

    // 4. Below the core, each logged access translates through the
    //    stride-mode page tables: the Figure 10 swap moves the accesses to
    //    the reshaped physical rows while keeping the 16B unit offset.
    println!("\nfirst four sloads through the stride-mode page tables:");
    for access in machine.log().iter().take(4) {
        let paddr = vm.translate(access.addr).expect("mapped");
        println!(
            "  vaddr {:#010x} -> paddr {:#010x}  (strided: {}, 16B offset preserved: {})",
            access.addr,
            paddr,
            access.strided,
            paddr % 16 == access.addr % 16,
        );
    }
    let strided = machine.log().iter().filter(|a| a.strided).count();
    println!(
        "\n{strided}/{} accesses carried the stride attribute — how the software\n\
         stack requests the Sx4_n I/O modes from the memory controller.",
        machine.log().len()
    );
}
