//! Packed weight panels for the lane-batched forward kernels.
//!
//! A layer's canonical weights are row-major `[outputs × r]`, where `r`
//! is the length of one output's reduction (`in_dim` for dense,
//! `in_ch·k·k` for conv). The forward kernels run lanes across
//! independent outputs, so reduction step `i` needs weight `i` of every
//! lane in its block. The panel stores exactly that: the outputs
//! are split into lane blocks (see [`lane_blocks`]) and each block is
//! interleaved `[i][lane]`, so the lanes' weights for step `i` are one
//! contiguous `[f32; L]`.

/// Splits `outputs` into the kernels' lane blocks, yielding `(first
/// output, lanes)`: blocks of 16 while 16 remain, then one block of 8 if
/// 8 remain, then single outputs. Blocks tile the outputs in order, so
/// the block starting at output `o` occupies `o·r..(o + lanes)·r` of the
/// panel.
pub(crate) fn lane_blocks(outputs: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut first = 0;
    std::iter::from_fn(move || {
        let lanes = match outputs - first {
            0 => return None,
            n if n >= 16 => 16,
            n if n >= 8 => 8,
            _ => 1,
        };
        first += lanes;
        Some((first - lanes, lanes))
    })
}

/// A layer's weights interleaved for its forward kernel, derived from the
/// canonical row-major weights.
///
/// `params()` is the only path that writes a layer's weights (loading,
/// optimizers and ML faults all go through it), so it marks the panel
/// stale and `forward` repacks it before use.
#[derive(Debug, Clone, Default)]
pub(crate) struct WeightPanel {
    packed: Vec<f32>,
    fresh: bool,
}

impl WeightPanel {
    /// Marks the panel out of date with the canonical weights.
    pub(crate) fn mark_stale(&mut self) {
        self.fresh = false;
    }

    /// Repacks the panel from `weight` (row-major, reduction length `r`)
    /// if it is stale.
    pub(crate) fn refresh(&mut self, weight: &[f32], r: usize) {
        if self.fresh {
            return;
        }
        self.packed.clear();
        self.packed.resize(weight.len(), 0.0);
        for (first, lanes) in lane_blocks(weight.len() / r) {
            let span = first * r..(first + lanes) * r;
            let block = &mut self.packed[span.clone()];
            for (lane, row) in weight[span].chunks_exact(r).enumerate() {
                for (i, &w) in row.iter().enumerate() {
                    block[i * lanes + lane] = w;
                }
            }
        }
        self.fresh = true;
    }

    /// The lane block starting at output `first`: `r` steps of `L`
    /// weights. Call [`WeightPanel::refresh`] first.
    pub(crate) fn block<const L: usize>(&self, first: usize, r: usize) -> &[[f32; L]] {
        debug_assert!(self.fresh, "weight panel read while stale");
        self.packed[first * r..(first + L) * r].as_chunks::<L>().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_blocks_tile_the_outputs_widest_first() {
        let blocks = |n| lane_blocks(n).collect::<Vec<_>>();
        assert_eq!(blocks(0), vec![]);
        assert_eq!(blocks(3), vec![(0, 1), (1, 1), (2, 1)]);
        assert_eq!(blocks(8), vec![(0, 8)]);
        assert_eq!(blocks(16), vec![(0, 16)]);
        assert_eq!(blocks(33), vec![(0, 16), (16, 16), (32, 1)]);
        assert_eq!(blocks(26), vec![(0, 16), (16, 8), (24, 1), (25, 1)]);
    }

    #[test]
    fn panel_interleaves_each_block_by_lane() {
        // 10 outputs of reduction length 2: one 8-lane block, then two
        // single outputs.
        let weight: Vec<f32> = (0..20).map(|v| v as f32).collect();
        let mut panel = WeightPanel::default();
        panel.refresh(&weight, 2);
        let block = panel.block::<8>(0, 2);
        assert_eq!(block[0], [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
        assert_eq!(block[1], [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]);
        assert_eq!(panel.block::<1>(8, 2), &[[16.0], [17.0]]);
        assert_eq!(panel.block::<1>(9, 2), &[[18.0], [19.0]]);
    }
}
