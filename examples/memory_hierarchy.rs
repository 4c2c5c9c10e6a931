//! The paper's closing claim (§6): "The applicability of XDP is quite
//! general ... it can be used to optimize data transfers across different
//! levels of a memory hierarchy."
//!
//! Model: "processor" 0 is large slow memory; "processor" 1 is a small
//! fast memory attached to the compute engine. Exclusive ownership of a
//! tile means residency in fast memory; XDP ownership transfer is the
//! explicit staging traffic. The program streams T tiles: fetch a tile
//! (`<=-` into fast memory), compute on it, write it back (`-=>`), with
//! the compute rule machinery tracking residency exactly as it tracks
//! distributed ownership. Segment granularity = the tile.
//!
//! ```text
//! cargo run --example memory_hierarchy
//! ```

use std::sync::Arc;
use xdp::prelude::*;
use xdp_ir::IntExpr;

fn program(tiles: i64, tile: i64, flops_per_elem: i64) -> (Program, VarId) {
    let n = tiles * tile;
    let mut p = Program::new();
    // DATA lives wholly in slow memory (pid 0) initially; tile segments.
    let data = p.declare(Decl {
        name: "DATA".into(),
        elem: ElemType::F64,
        bounds: vec![Triplet::range(1, n)],
        ownership: Ownership::Exclusive,
        dist: Some(Distribution::collapsed(1, 2)),
        segment_shape: Some(vec![tile]),
    });
    let t0 = build::iv("t")
        .sub(build::c(1))
        .mul(build::c(tile))
        .add(build::c(1));
    let t1 = build::iv("t").mul(build::c(tile));
    let tile_sec = build::sref(data, vec![build::span(t0, t1)]);
    let slow = build::cmp(xdp_ir::CmpOp::Eq, build::mypid(), build::c(0));
    let fast = build::cmp(xdp_ir::CmpOp::Eq, build::mypid(), build::c(1));
    p.body = vec![build::do_loop(
        "t",
        build::c(1),
        build::c(tiles),
        vec![
            // Slow memory stages the tile out; fast memory fetches it.
            // Destinations are bound (`E -> S`): fetch and write-back share
            // the tile's name, so the rendezvous must be directed.
            build::guarded(
                slow.clone(),
                vec![build::send_own_val_to(tile_sec.clone(), vec![build::c(1)])],
            ),
            build::guarded(fast.clone(), vec![build::recv_own_val(tile_sec.clone())]),
            // Compute while resident in fast memory.
            build::guarded(
                build::await_(tile_sec.clone()),
                vec![build::kernel_with(
                    "work",
                    vec![tile_sec.clone()],
                    vec![build::c(flops_per_elem * tile)],
                )],
            ),
            // Write the tile back (residency released: §2.6's storage
            // reuse — fast memory's footprint stays one tile).
            build::guarded(
                fast.clone(),
                vec![build::send_own_val_to(tile_sec.clone(), vec![build::c(0)])],
            ),
            build::guarded(slow.clone(), vec![build::recv_own_val(tile_sec.clone())]),
        ],
    )];
    (p, data)
}

/// Double-buffered variant: fast memory preposts the fetch of tile t+1
/// before computing tile t, so staging overlaps compute (§3.2's "move the
/// receive statements as early as possible", applied to a memory
/// hierarchy). Peak fast-memory residency becomes two tiles.
fn program_double_buffered(tiles: i64, tile: i64, flops_per_elem: i64) -> (Program, VarId) {
    let n = tiles * tile;
    let mut p = Program::new();
    let data = p.declare(Decl {
        name: "DATA".into(),
        elem: ElemType::F64,
        bounds: vec![Triplet::range(1, n)],
        ownership: Ownership::Exclusive,
        dist: Some(Distribution::collapsed(1, 2)),
        segment_shape: Some(vec![tile]),
    });
    let sec_at = |t: IntExpr| {
        let t0 = t
            .clone()
            .sub(build::c(1))
            .mul(build::c(tile))
            .add(build::c(1));
        let t1 = t.mul(build::c(tile));
        build::sref(data, vec![build::span(t0, t1)])
    };
    let tile_t = sec_at(build::iv("t"));
    let tile_next = sec_at(build::iv("t").add(build::c(1)));
    let tile_first = sec_at(build::c(1));
    let slow = build::cmp(xdp_ir::CmpOp::Eq, build::mypid(), build::c(0));
    let fast = build::cmp(xdp_ir::CmpOp::Eq, build::mypid(), build::c(1));
    let not_last = build::cmp(xdp_ir::CmpOp::Lt, build::iv("t"), build::c(tiles));
    p.body = vec![
        // Prologue: fetch tile 1.
        build::guarded(
            slow.clone(),
            vec![build::send_own_val_to(
                tile_first.clone(),
                vec![build::c(1)],
            )],
        ),
        build::guarded(fast.clone(), vec![build::recv_own_val(tile_first)]),
        build::do_loop(
            "t",
            build::c(1),
            build::c(tiles),
            vec![
                // Stage tile t+1 while tile t computes.
                build::guarded(
                    slow.clone().and(not_last.clone()),
                    vec![build::send_own_val_to(tile_next.clone(), vec![build::c(1)])],
                ),
                build::guarded(
                    fast.clone().and(not_last.clone()),
                    vec![build::recv_own_val(tile_next.clone())],
                ),
                build::guarded(
                    build::await_(tile_t.clone()),
                    vec![build::kernel_with(
                        "work",
                        vec![tile_t.clone()],
                        vec![build::c(flops_per_elem * tile)],
                    )],
                ),
                build::guarded(
                    fast.clone(),
                    vec![build::send_own_val_to(tile_t.clone(), vec![build::c(0)])],
                ),
                build::guarded(slow.clone(), vec![build::recv_own_val(tile_t.clone())]),
            ],
        ),
    ];
    (p, data)
}

fn main() {
    // Fast<->slow staging cost: model the "interconnect" as a memory bus.
    let bus = CostModel {
        alpha: 30.0, // per-transfer setup
        beta: 0.05,  // per byte
        ..CostModel::default_1993()
    };
    println!("variant            tiles x tile  |  time      peak fast bytes  transfers");
    for (tiles, tile) in [(64i64, 4i64), (32, 8), (16, 16), (4, 64), (1, 256)] {
        for (label, (p, data)) in [
            ("single-buffered", program(tiles, tile, 60)),
            ("double-buffered", program_double_buffered(tiles, tile, 60)),
        ] {
            let mut exec = SimExec::new(
                Arc::new(p),
                KernelRegistry::standard(),
                MachineConfig::new(2).with_cost(bus),
            );
            exec.init_exclusive(data, |idx| Value::F64(idx[0] as f64));
            let r = exec.run().expect("run");
            // Peak residency in "fast memory" = p1's symbol-table high water.
            let peak_fast = r.procs[1].symtab.peak_bytes;
            println!(
                "{label}  {:>7} x {:<4} | {:>9.1}  {:>10} B       {:>4}",
                tiles, tile, r.virtual_time, peak_fast, r.net.messages,
            );
            let g = exec.gather(data);
            // Every tile went through fast memory once (work adds 1 to the
            // first element of each tile) and returned to slow memory.
            for t in 0..tiles {
                let first = t * tile + 1;
                assert_eq!(g.owner(&[first]), Some(0), "tile {t} back in slow memory");
                assert_eq!(g.get(&[first]).unwrap().as_f64(), first as f64 + 1.0);
            }
        }
    }
    println!(
        "\nthe same XDP constructs that managed distributed ownership manage\n\
         residency: one tile of fast-memory footprint regardless of data size,\n\
         with the staging/compute overlap visible in the tile-size sweep."
    );
}
