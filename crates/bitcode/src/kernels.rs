//! HA-Kern — the distance-kernel layer behind every frozen-snapshot
//! search path.
//!
//! The scalar SoA sweep (the original HA-Flat kernel) treats one sibling
//! group as `2 · words · group` contiguous words and pays one branchy
//! scalar XOR/popcount step per sibling per word-plane. That shape is
//! already memory-friendly, but it leaves throughput on the table in two
//! opposite regimes:
//!
//! * **Wide groups, narrow codes** (clustered 64-bit data): the sweep is
//!   popcount-throughput-bound and the per-sibling `a <= limit` branch
//!   plus the load→xor→popcount→add dependency chain serialize it. The
//!   *lane-chunked* kernels process siblings in fixed-size lanes with the
//!   branch hoisted to lane granularity, so the compiler can keep several
//!   popcounts in flight.
//! * **Narrow groups, wide codes** (sparse 512-bit data): most siblings
//!   die on their first word or two, and the SoA plane order forces the
//!   kernel to come back to every sibling once per word-plane anyway. A
//!   *row-major* (AoS) group layout — each sibling's `bits` row then
//!   `mask` row, contiguous — lets the kernel finish one sibling with a
//!   single early-exiting streak, exactly like the arena's
//!   `MaskedCode::distance_to`, but over contiguous memory.
//!
//! Both layouts occupy the **same** `2 · words · group` words per group,
//! so a snapshot can choose per group (the adaptive freeze policy in
//! `ha-core`) without disturbing any base-offset arithmetic; the choice
//! travels as one byte per group ([`GroupLayout`]).
//!
//! [`masked_distance_group`] is the single dispatch point: a [`Kernel`]
//! (runtime choice) × [`GroupLayout`] (per-group data) pair selects the
//! implementation.
//!
//! # Contract (all kernels)
//!
//! `acc[s]` carries sibling `s`'s accumulated parent-path distance on
//! entry. On exit, `acc[s] <= limit` implies `acc[s]` is the exact
//! accumulated distance including sibling `s`'s own pattern; `acc[s] > limit` means pruned, and the value may be
//! partial — kernels are free to stop work on a sibling, a lane, or the
//! whole group once everything in it is over budget. With
//! `limit == u32::MAX` nothing can be pruned, so every kernel returns
//! bit-exact distances (the property the trace renderer relies on).

/// Physical order of one sibling group's pattern words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupLayout {
    /// Structure-of-arrays word-planes: all siblings' bits word 0, all
    /// siblings' mask word 0, then word 1, … (the original HA-Flat
    /// layout; best for wide groups of narrow codes).
    Soa,
    /// Row-major: sibling 0's bits words then mask words, sibling 1's,
    /// … (best for small groups of wide codes, where per-sibling early
    /// exit beats plane sweeping and transposition buys nothing).
    Aos,
}

impl GroupLayout {
    /// Both layouts, in dispatch order.
    pub const ALL: [GroupLayout; 2] = [GroupLayout::Soa, GroupLayout::Aos];

    /// Wire encoding of the layout flag (one byte per group in the
    /// HA-Store v2 format): `Soa` = 0, `Aos` = 1.
    pub fn flag(self) -> u8 {
        match self {
            GroupLayout::Soa => 0,
            GroupLayout::Aos => 1,
        }
    }

    /// Decodes a wire flag; any nonzero byte reads as `Aos` (the store
    /// validator rejects flags outside {0, 1} before search ever runs).
    pub fn from_flag(flag: u8) -> GroupLayout {
        if flag == 0 {
            GroupLayout::Soa
        } else {
            GroupLayout::Aos
        }
    }

    /// Stable lower-case name used in benches and tables.
    pub fn name(self) -> &'static str {
        match self {
            GroupLayout::Soa => "soa",
            GroupLayout::Aos => "aos",
        }
    }
}

/// Which kernel implementation services a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The reference kernels: branchy per-sibling scalar loops.
    Scalar,
    /// Lane-chunked kernels: siblings processed in lanes of [`LANES`]
    /// (SoA) / words in unrolled blocks of 4 (AoS), liveness checked per
    /// lane, popcounts unrolled so they pipeline.
    Lanes,
}

impl Kernel {
    /// Every kernel, in ascending sophistication — the bench/test matrix.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Lanes];

    /// The best kernel for the CPU this process is *running on*, probed
    /// once and cached: [`Kernel::Lanes`] when the hardware popcount the
    /// lane-chunked kernels lean on is actually present, the branchy
    /// scalar reference otherwise. The probe matters for portable
    /// binaries built without `-C target-cpu=native`.
    ///
    /// Every kernel computes identical distances, so the choice is pure
    /// performance: callers (freeze, serve) may cache or override it
    /// freely without affecting results.
    pub fn detect() -> Kernel {
        static DETECTED: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                // Without POPCNT the unrolled `count_ones` chains in the
                // lane kernels lower to the slow bit-twiddling expansion;
                // the short-circuiting scalar loop wins there.
                if !std::arch::is_x86_feature_detected!("popcnt") {
                    return Kernel::Scalar;
                }
            }
            Kernel::Lanes
        })
    }

    /// Stable lower-case name used in benches and tables.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Lanes => "lanes",
        }
    }
}

/// Sibling-lane width of the lane-chunked SoA kernel: 8 × u64 = one
/// 64-byte cache line of plane data per step.
pub const LANES: usize = 8;

/// Words per unrolled block of the lane-chunked AoS kernel.
const AOS_UNROLL: usize = 4;

#[inline(always)]
fn pop(q: u64, bits: u64, mask: u64) -> u32 {
    ((q ^ bits) & mask).count_ones()
}

/// Batch masked-distance over one sibling group — the single dispatch
/// point of HA-Kern (see module docs for the contract).
///
/// `planes` holds the group's `2 * query.len() * group` pattern words in
/// `layout` order; `kernel` picks the implementation at runtime. In SoA
/// order, for each word index `w` of the code, first the *bits* word `w`
/// of every sibling, then the *mask* word `w` of every sibling:
///
/// ```text
/// [ bits w0 of s0..s(g-1) | mask w0 of s0..s(g-1) |
///   bits w1 of s0..s(g-1) | mask w1 of s0..s(g-1) | … ]
/// ```
///
/// In AoS order, sibling 0's bits words then its mask words, then
/// sibling 1's, and so on.
///
/// # Panics
/// If `planes.len() != 2 * query.len() * group`. `acc.len() == group` is
/// debug-asserted at this boundary; in release builds a short `acc` can
/// only truncate the sweep or panic on an interior bounds check.
pub fn masked_distance_group(
    kernel: Kernel,
    layout: GroupLayout,
    query: &[u64],
    planes: &[u64],
    group: usize,
    limit: u32,
    acc: &mut [u32],
) {
    assert_eq!(
        planes.len(),
        2 * query.len() * group,
        "planes must hold bits+mask words for every sibling"
    );
    debug_assert_eq!(acc.len(), group, "one accumulator per sibling");
    if group == 0 || query.is_empty() {
        return;
    }
    match (kernel, layout) {
        (Kernel::Scalar, GroupLayout::Soa) => soa_scalar(query, planes, group, limit, acc),
        (Kernel::Scalar, GroupLayout::Aos) => aos_scalar(query, planes, limit, acc),
        (Kernel::Lanes, GroupLayout::Soa) => soa_lanes(query, planes, group, limit, acc),
        (Kernel::Lanes, GroupLayout::Aos) => aos_lanes(query, planes, limit, acc),
    }
}

/// Scalar SoA sweep: one branchy XOR/popcount step per live sibling per
/// word-plane, bailing out of the group as soon as a plane ends with no
/// sibling still within budget.
fn soa_scalar(query: &[u64], planes: &[u64], group: usize, limit: u32, acc: &mut [u32]) {
    for (plane, &q) in planes.chunks_exact(2 * group).zip(query) {
        let (bits, mask) = plane.split_at(group);
        let mut live = false;
        for s in 0..group {
            let a = acc[s];
            if a <= limit {
                let d = a + pop(q, bits[s], mask[s]);
                acc[s] = d;
                live |= d <= limit;
            }
        }
        if !live {
            return;
        }
    }
}

/// Lane-chunked SoA sweep: per word-plane, siblings go by in lanes of
/// [`LANES`]; a lane whose accumulators are all over budget is skipped
/// whole (the scalar kernel's per-sibling branch, at 1/8 the frequency),
/// a live lane runs branch-free with its popcounts unrolled. Group-level
/// bail-out is unchanged: once a plane ends with nobody within budget,
/// the remaining planes are skipped.
fn soa_lanes(query: &[u64], planes: &[u64], group: usize, limit: u32, acc: &mut [u32]) {
    // Single word-plane (64-bit codes): there is no next plane to bail
    // out of, so liveness tracking buys nothing — run one branch-free
    // pass. Dead-on-entry accumulators only grow (saturating), so they
    // stay over budget, and live ones get their exact distance.
    if let [q] = query {
        let (bits, mask) = planes.split_at(group);
        for (a, (&b, &m)) in acc.iter_mut().zip(bits.iter().zip(mask)) {
            *a = a.saturating_add(pop(*q, b, m));
        }
        return;
    }
    let full = group - group % LANES;
    for (plane, &q) in planes.chunks_exact(2 * group).zip(query) {
        let (bits, mask) = plane.split_at(group);
        let mut live = false;
        for ((b, m), a) in bits[..full]
            .chunks_exact(LANES)
            .zip(mask[..full].chunks_exact(LANES))
            .zip(acc[..full].chunks_exact_mut(LANES))
        {
            if a.iter().all(|&x| x > limit) {
                continue;
            }
            for i in 0..LANES {
                let d = a[i].saturating_add(pop(q, b[i], m[i]));
                a[i] = d;
                live |= d <= limit;
            }
        }
        for s in full..group {
            let a = acc[s];
            if a <= limit {
                let d = a + pop(q, bits[s], mask[s]);
                acc[s] = d;
                live |= d <= limit;
            }
        }
        if !live {
            return;
        }
    }
}

/// Scalar AoS sweep: one early-exiting streak per sibling over its
/// contiguous `[bits…, mask…]` row — the arena's per-child distance
/// loop, minus the pointer chase.
fn aos_scalar(query: &[u64], planes: &[u64], limit: u32, acc: &mut [u32]) {
    let w = query.len();
    for (a, row) in acc.iter_mut().zip(planes.chunks_exact(2 * w)) {
        if *a > limit {
            continue;
        }
        let (bits, mask) = row.split_at(w);
        let mut d = *a;
        for i in 0..w {
            d += pop(query[i], bits[i], mask[i]);
            if d > limit {
                break;
            }
        }
        *a = d;
    }
}

/// Lane-chunked AoS sweep: like [`aos_scalar`], but each sibling's row
/// is consumed in unrolled blocks of [`AOS_UNROLL`] words with the
/// budget check once per block, so the popcounts pipeline.
fn aos_lanes(query: &[u64], planes: &[u64], limit: u32, acc: &mut [u32]) {
    let w = query.len();
    for (a, row) in acc.iter_mut().zip(planes.chunks_exact(2 * w)) {
        if *a > limit {
            continue;
        }
        let (bits, mask) = row.split_at(w);
        let mut d = *a;
        let mut i = 0;
        while i + AOS_UNROLL <= w {
            let block = pop(query[i], bits[i], mask[i])
                + pop(query[i + 1], bits[i + 1], mask[i + 1])
                + pop(query[i + 2], bits[i + 2], mask[i + 2])
                + pop(query[i + 3], bits[i + 3], mask[i + 3]);
            d = d.saturating_add(block);
            if d > limit {
                break;
            }
            i += AOS_UNROLL;
        }
        while i < w && d <= limit {
            d = d.saturating_add(pop(query[i], bits[i], mask[i]));
            i += 1;
        }
        *a = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words (splitmix-style mixer).
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Packs per-sibling (bits, mask) rows into `layout` order.
    fn pack(group: &[(Vec<u64>, Vec<u64>)], layout: GroupLayout) -> Vec<u64> {
        let words = group.first().map_or(0, |(b, _)| b.len());
        let mut planes = Vec::new();
        match layout {
            GroupLayout::Soa => {
                for w in 0..words {
                    for (bits, _) in group {
                        planes.push(bits[w]);
                    }
                    for (_, mask) in group {
                        planes.push(mask[w]);
                    }
                }
            }
            GroupLayout::Aos => {
                for (bits, mask) in group {
                    planes.extend_from_slice(bits);
                    planes.extend_from_slice(mask);
                }
            }
        }
        planes
    }

    fn naive(query: &[u64], bits: &[u64], mask: &[u64]) -> u32 {
        query
            .iter()
            .zip(bits)
            .zip(mask)
            .map(|((q, b), m)| ((q ^ b) & m).count_ones())
            .sum()
    }

    #[test]
    fn every_kernel_and_layout_matches_naive() {
        let mut next = rng(0x1234_5678);
        for words in [1usize, 2, 4, 8, 16] {
            for group in [1usize, 2, 7, 8, 9, 33] {
                let query: Vec<u64> = (0..words).map(|_| next()).collect();
                let sibs: Vec<(Vec<u64>, Vec<u64>)> = (0..group)
                    .map(|_| {
                        (
                            (0..words).map(|_| next()).collect(),
                            (0..words).map(|_| next()).collect(),
                        )
                    })
                    .collect();
                for layout in GroupLayout::ALL {
                    let planes = pack(&sibs, layout);
                    for kernel in Kernel::ALL {
                        for limit in [0u32, 3, 17, 64, u32::MAX] {
                            for init in [0u32, 2] {
                                let mut acc = vec![init; group];
                                masked_distance_group(
                                    kernel, layout, &query, &planes, group, limit, &mut acc,
                                );
                                for (s, (bits, mask)) in sibs.iter().enumerate() {
                                    let exact = init + naive(&query, bits, mask);
                                    if exact <= limit {
                                        assert_eq!(
                                            acc[s],
                                            exact,
                                            "kernel={} layout={} words={words} group={group} \
                                             limit={limit} sibling={s}",
                                            kernel.name(),
                                            layout.name()
                                        );
                                    } else {
                                        assert!(
                                            acc[s] > limit,
                                            "pruned sibling must stay over budget \
                                             (kernel={} layout={})",
                                            kernel.name(),
                                            layout.name()
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unlimited_budget_is_bit_exact_everywhere() {
        // limit == u32::MAX disables pruning: every kernel × layout must
        // agree exactly, which is what the trace renderer relies on.
        let mut next = rng(99);
        let words = 8;
        let group = 13;
        let query: Vec<u64> = (0..words).map(|_| next()).collect();
        let sibs: Vec<(Vec<u64>, Vec<u64>)> = (0..group)
            .map(|_| {
                (
                    (0..words).map(|_| next()).collect(),
                    (0..words).map(|_| next()).collect(),
                )
            })
            .collect();
        let expect: Vec<u32> = sibs.iter().map(|(b, m)| naive(&query, b, m)).collect();
        for layout in GroupLayout::ALL {
            let planes = pack(&sibs, layout);
            for kernel in Kernel::ALL {
                let mut acc = vec![0u32; group];
                masked_distance_group(kernel, layout, &query, &planes, group, u32::MAX, &mut acc);
                assert_eq!(acc, expect, "kernel={} layout={}", kernel.name(), layout.name());
            }
        }
    }

    #[test]
    fn dead_on_entry_siblings_stay_dead() {
        // An accumulator already over budget must never come back under
        // it, even at the saturation boundary.
        let query = [u64::MAX];
        let planes_soa = [0u64, u64::MAX]; // bits=0, mask=all → popcount 64
        let planes_aos = [0u64, u64::MAX];
        for kernel in Kernel::ALL {
            let mut acc = [u32::MAX];
            masked_distance_group(kernel, GroupLayout::Soa, &query, &planes_soa, 1, 5, &mut acc);
            assert!(acc[0] > 5, "kernel={}", kernel.name());
            let mut acc = [u32::MAX];
            masked_distance_group(kernel, GroupLayout::Aos, &query, &planes_aos, 1, 5, &mut acc);
            assert!(acc[0] > 5, "kernel={}", kernel.name());
        }
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        for kernel in Kernel::ALL {
            for layout in GroupLayout::ALL {
                masked_distance_group(kernel, layout, &[0u64; 2], &[], 0, 5, &mut []);
                masked_distance_group(kernel, layout, &[], &[], 3, 5, &mut [0, 1, 2]);
            }
        }
    }

    #[test]
    fn layout_flags_round_trip() {
        assert_eq!(GroupLayout::from_flag(0), GroupLayout::Soa);
        assert_eq!(GroupLayout::from_flag(1), GroupLayout::Aos);
        assert_eq!(GroupLayout::Aos.flag(), 1);
    }

    #[test]
    fn detected_kernel_is_stable() {
        // The OnceLock cache must make repeated probes free and equal.
        let k = Kernel::detect();
        assert_eq!(Kernel::detect(), k);
        // On any host modern enough to run the test suite the probe
        // finds popcount and picks the lane kernels; the scalar
        // fallback is for genuinely pre-SSE4.2 silicon.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            assert_eq!(k, Kernel::Lanes);
        }
    }
}
