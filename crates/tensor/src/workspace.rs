//! A reusable scratch arena for the allocation-free decode hot loop.
//!
//! Every GEMM of every layer of every decode step needs the same handful of short-lived
//! buffers: a quantized INT8 copy of the activations, an INT32 accumulator, checksum
//! vectors, requantization scratch, normalized inputs, attention scores. Allocating them
//! fresh per GEMM makes the allocator a per-token cost that grows with batch size and queue
//! depth — exactly where the serving layer needs headroom. [`Workspace`] turns those
//! allocations into checkouts from typed free pools:
//!
//! * [`Workspace::take_mat_f32`] (and the `i8`/`i32`/vector variants) hands out a
//!   zero-initialised buffer of the requested shape, reusing a pooled backing allocation
//!   whenever one with enough capacity exists;
//! * the matching `recycle_*` call returns the buffer's backing storage to the pool once
//!   the caller is done with it;
//! * fresh or growing allocations round their capacity up to the next power of two, so a
//!   buffer whose demand grows monotonically (attention scores lengthen every decode step)
//!   re-allocates O(log n) times total instead of once per step.
//!
//! Ownership moves on checkout, so overlapping borrows of one region are structurally
//! impossible; the debug build additionally verifies that a recycled buffer is not already
//! sitting in the free pool (a double-recycle through a cloned handle) and
//! [`Workspace::reset`] asserts that every checkout was returned. In debug builds recycled
//! and reset buffers are *poisoned* with a sentinel pattern (`NaN` for floats, `0x55…` for
//! integers), so any stale read of freed scratch produces loud garbage instead of silently
//! passing a parity test; `take_*` always zero-fills, so release and debug builds stay
//! bit-identical.
//!
//! The arena tracks a byte high-water mark ([`Workspace::high_water_mark_bytes`]): a
//! steady-state decode loop's mark stabilises after warmup, which the leak check in
//! `tests/zero_alloc.rs` pins down and the serving engine surfaces in its operator stats.

use crate::matrix::Matrix;

/// Typed free pools of reusable backing buffers plus checkout accounting.
///
/// See the [module documentation](self) for the checkout/recycle discipline.
///
/// # Example
///
/// ```
/// use realm_tensor::Workspace;
///
/// let mut ws = Workspace::new();
/// let acc = ws.take_mat_i32(4, 8);
/// assert_eq!(acc.shape(), (4, 8));
/// assert!(acc.iter().all(|&v| v == 0));
/// ws.recycle_mat_i32(acc);
/// // The second checkout reuses the first buffer's backing allocation.
/// let again = ws.take_mat_i32(2, 3);
/// ws.recycle_mat_i32(again);
/// assert!(ws.high_water_mark_bytes() > 0);
/// ws.reset();
/// ```
#[derive(Debug)]
pub struct Workspace {
    f32_bufs: Buckets<f32>,
    i8_bufs: Buckets<i8>,
    i32_bufs: Buckets<i32>,
    i64_bufs: Buckets<i64>,
    /// Bytes currently resident in the free pools.
    pooled_bytes: usize,
    /// Bytes currently checked out (capacities at take time; recycles subtract the
    /// returned capacity, saturating). A buffer grown *outside* the workspace between
    /// take and recycle is only observed at recycle time, so the mark can miss such a
    /// transient peak — the hot paths therefore take correctly sized buffers up front.
    taken_bytes: usize,
    /// Highest observed `pooled_bytes + taken_bytes`.
    high_water_bytes: usize,
    /// Number of buffers currently checked out (used by `reset`'s leak assertion).
    outstanding: usize,
}

impl Default for Workspace {
    fn default() -> Self {
        Self {
            f32_bufs: Buckets::new(),
            i8_bufs: Buckets::new(),
            i32_bufs: Buckets::new(),
            i64_bufs: Buckets::new(),
            pooled_bytes: 0,
            taken_bytes: 0,
            high_water_bytes: 0,
            outstanding: 0,
        }
    }
}

/// Free buffers binned by power-of-two capacity class: bucket `c` holds buffers whose
/// capacity is at least `2^c`, so a checkout is one index computation plus a stack pop —
/// O(1), no scanning — and a popped buffer always has enough capacity for its class.
#[derive(Debug)]
struct Buckets<T> {
    classes: Vec<Vec<Vec<T>>>,
}

impl<T: Poolable> Buckets<T> {
    fn new() -> Self {
        Self {
            classes: Vec::new(),
        }
    }

    /// Capacity class that can serve a request of `len` elements: `ceil(log2(len))`.
    fn class_for_len(len: usize) -> usize {
        len.max(1).next_power_of_two().trailing_zeros() as usize
    }

    /// Capacity class a buffer of `cap` elements belongs to: `floor(log2(cap))` (every
    /// buffer in class `c` has capacity ≥ `2^c`).
    fn class_for_cap(cap: usize) -> usize {
        cap.max(1).ilog2() as usize
    }

    /// Pops a zeroed buffer of `len` elements from the smallest sufficient class
    /// (probing upward through empty classes), allocating a fresh
    /// power-of-two-capacity buffer only when no pooled buffer suffices. Returns the
    /// buffer and the capacity (in elements) it vacated from the pool.
    fn take(&mut self, len: usize) -> (Vec<T>, usize) {
        let start = Self::class_for_len(len);
        let mut buf = None;
        for class in start..self.classes.len() {
            if let Some(pooled) = self.classes[class].pop() {
                buf = Some(pooled);
                break;
            }
        }
        // Only a buffer that actually came out of the pool vacates pooled capacity; a
        // fresh allocation must not debit the pool's byte accounting.
        let (mut buf, vacated) = match buf {
            Some(buf) => {
                let vacated = buf.capacity();
                (buf, vacated)
            }
            None => (Vec::with_capacity(1usize << start), 0),
        };
        buf.clear();
        buf.resize(len, T::default());
        (buf, vacated)
    }

    /// Pushes a buffer back into its capacity class (debug builds assert it is not
    /// already pooled — a double recycle through a cloned handle).
    fn put(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = Self::class_for_cap(buf.capacity());
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        debug_assert!(
            !self.classes[class]
                .iter()
                .any(|pooled| std::ptr::eq(pooled.as_ptr(), buf.as_ptr())),
            "buffer recycled while an identical backing allocation is already pooled \
             (double recycle / overlapping checkout)"
        );
        self.classes[class].push(buf);
    }

    fn poison_all(&mut self) {
        for class in &mut self.classes {
            for buf in class {
                poison_buf(buf);
            }
        }
    }
}

/// Sentinel written into freed integer scratch in debug builds.
const POISON_BYTE: u8 = 0x55;

/// Elements are plain scalars the workspace knows how to zero and poison.
pub trait Poolable: Copy + Default {
    /// The debug-build poison value for this element type.
    fn poison() -> Self;
}

impl Poolable for f32 {
    fn poison() -> Self {
        f32::NAN
    }
}
impl Poolable for i8 {
    fn poison() -> Self {
        POISON_BYTE as i8
    }
}
impl Poolable for i32 {
    fn poison() -> Self {
        i32::from_le_bytes([POISON_BYTE; 4])
    }
}
impl Poolable for i64 {
    fn poison() -> Self {
        i64::from_le_bytes([POISON_BYTE; 8])
    }
}

fn poison_buf<T: Poolable>(buf: &mut [T]) {
    if cfg!(debug_assertions) {
        buf.fill(T::poison());
    }
}

macro_rules! pool_impl {
    ($take_mat:ident, $recycle_mat:ident, $take_vec:ident, $recycle_vec:ident,
     $pool:ident, $ty:ty, $mat_doc:literal) => {
        #[doc = $mat_doc]
        ///
        /// The buffer is zero-filled; the matching `recycle` call returns its backing
        /// storage to the pool. Checked-out buffers are ordinary owned values — dropping
        /// one instead of recycling it is memory-safe but counts as a leak: the buffer
        /// never returns to the pool and the next [`Workspace::reset`] fails its
        /// outstanding-checkouts assertion in debug builds.
        pub fn $take_mat(&mut self, rows: usize, cols: usize) -> Matrix<$ty> {
            let data = self.$take_vec(rows * cols);
            Matrix::from_vec(rows, cols, data).expect("workspace sized the backing buffer")
        }

        /// Returns a matrix's backing storage to the pool (debug builds poison it).
        pub fn $recycle_mat(&mut self, mat: Matrix<$ty>) {
            self.$recycle_vec(mat.into_vec());
        }

        /// Checks out a zero-filled vector of `len` elements.
        pub fn $take_vec(&mut self, len: usize) -> Vec<$ty> {
            let (buf, vacated) = self.$pool.take(len);
            self.pooled_bytes = self
                .pooled_bytes
                .saturating_sub(vacated * std::mem::size_of::<$ty>());
            self.taken_bytes += buf.capacity() * std::mem::size_of::<$ty>();
            self.outstanding += 1;
            self.note_high_water();
            buf
        }

        /// Returns a vector's backing storage to the pool (debug builds poison it).
        pub fn $recycle_vec(&mut self, mut buf: Vec<$ty>) {
            let bytes = buf.capacity() * std::mem::size_of::<$ty>();
            self.outstanding = self.outstanding.saturating_sub(1);
            self.taken_bytes = self.taken_bytes.saturating_sub(bytes);
            poison_buf(&mut buf);
            self.pooled_bytes += bytes;
            self.note_high_water();
            self.$pool.put(buf);
        }
    };
}

impl Workspace {
    /// Creates an empty workspace; pools grow on demand during warmup.
    pub fn new() -> Self {
        Self::default()
    }

    pool_impl!(
        take_mat_f32,
        recycle_mat_f32,
        take_vec_f32,
        recycle_vec_f32,
        f32_bufs,
        f32,
        "Checks out a zero-filled `rows × cols` f32 matrix (activations, logits, scores)."
    );
    pool_impl!(
        take_mat_i8,
        recycle_mat_i8,
        take_vec_i8,
        recycle_vec_i8,
        i8_bufs,
        i8,
        "Checks out a zero-filled `rows × cols` INT8 matrix (quantized GEMM operands)."
    );
    pool_impl!(
        take_mat_i32,
        recycle_mat_i32,
        take_vec_i32,
        recycle_vec_i32,
        i32_bufs,
        i32,
        "Checks out a zero-filled `rows × cols` INT32 matrix (GEMM accumulators)."
    );
    pool_impl!(
        take_mat_i64,
        recycle_mat_i64,
        take_vec_i64,
        recycle_vec_i64,
        i64_bufs,
        i64,
        "Checks out a zero-filled `rows × cols` i64 matrix (checksum arithmetic)."
    );

    fn note_high_water(&mut self) {
        let total = self.pooled_bytes + self.taken_bytes;
        if total > self.high_water_bytes {
            self.high_water_bytes = total;
        }
    }

    /// Marks the end of one unit of work (typically one token).
    ///
    /// Debug builds assert that every checked-out buffer was recycled — a missing recycle
    /// is a leak that would grow the pools without bound — and poison every pooled buffer
    /// so reads of stale scratch fail loudly. Release builds only perform the (free)
    /// bookkeeping, so calling this per token costs nothing on the hot path.
    pub fn reset(&mut self) {
        debug_assert_eq!(
            self.outstanding, 0,
            "workspace reset with {} buffer(s) still checked out — recycle every take",
            self.outstanding
        );
        if cfg!(debug_assertions) {
            self.f32_bufs.poison_all();
            self.i8_bufs.poison_all();
            self.i32_bufs.poison_all();
            self.i64_bufs.poison_all();
        }
    }

    /// Highest observed total footprint (pooled + checked out) in bytes.
    ///
    /// Stabilises once the steady-state decode loop has warmed every pool — the no-leak
    /// property `tests/zero_alloc.rs` asserts across slot churn.
    pub fn high_water_mark_bytes(&self) -> usize {
        self.high_water_bytes
    }

    /// Number of buffers currently checked out and not yet recycled.
    pub fn outstanding_buffers(&self) -> usize {
        self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_requested_shape() {
        let mut ws = Workspace::new();
        let m = ws.take_mat_f32(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.iter().all(|&v| v == 0.0));
        let v = ws.take_vec_i64(7);
        assert_eq!(v.len(), 7);
        assert!(v.iter().all(|&x| x == 0));
        assert_eq!(ws.outstanding_buffers(), 2);
        ws.recycle_mat_f32(m);
        ws.recycle_vec_i64(v);
        assert_eq!(ws.outstanding_buffers(), 0);
    }

    #[test]
    fn recycled_capacity_is_reused_and_high_water_stabilises() {
        let mut ws = Workspace::new();
        let m = ws.take_mat_i32(8, 8);
        ws.recycle_mat_i32(m);
        let after_first = ws.high_water_mark_bytes();
        assert!(after_first >= 64 * 4);
        // Steady-state churn at the same or smaller shapes keeps the mark flat.
        for _ in 0..50 {
            let a = ws.take_mat_i32(8, 8);
            let b = ws.take_mat_i32(4, 4);
            ws.recycle_mat_i32(a);
            ws.recycle_mat_i32(b);
            ws.reset();
        }
        // One extra buffer was created for the concurrent second checkout; after that the
        // mark must not move again.
        let settled = ws.high_water_mark_bytes();
        for _ in 0..50 {
            let a = ws.take_mat_i32(8, 8);
            let b = ws.take_mat_i32(4, 4);
            ws.recycle_mat_i32(a);
            ws.recycle_mat_i32(b);
            ws.reset();
        }
        assert_eq!(ws.high_water_mark_bytes(), settled);
    }

    #[test]
    fn growing_demand_rounds_capacity_to_powers_of_two() {
        let mut ws = Workspace::new();
        for len in 1..100usize {
            let v = ws.take_vec_f32(len);
            assert!(v.capacity() >= len);
            assert!(v.capacity().is_power_of_two());
            ws.recycle_vec_f32(v);
        }
        // Monotonic growth settles into one buffer per power-of-two class
        // (1 + 2 + … + 128 elements), never one allocation per length.
        assert!(ws.high_water_mark_bytes() <= 256 * 4);
    }

    #[test]
    fn size_classes_keep_big_buffers_for_big_requests() {
        let mut ws = Workspace::new();
        let big = ws.take_vec_i64(100); // class 7: capacity 128
        let small = ws.take_vec_i64(3); // class 2: capacity 4
        ws.recycle_vec_i64(big);
        ws.recycle_vec_i64(small);
        let fit = ws.take_vec_i64(3);
        assert_eq!(
            fit.capacity(),
            4,
            "small request must not burn the big buffer"
        );
        ws.recycle_vec_i64(fit);
        let big_again = ws.take_vec_i64(70);
        assert_eq!(big_again.capacity(), 128, "class 7 buffer is reused");
        ws.recycle_vec_i64(big_again);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "still checked out")]
    fn reset_catches_leaked_checkouts() {
        let mut ws = Workspace::new();
        let _leaked = ws.take_vec_f32(4);
        ws.reset();
    }

    #[test]
    fn dropping_a_checked_out_buffer_is_a_counted_leak() {
        let mut ws = Workspace::new();
        let v = ws.take_vec_i8(16);
        drop(v); // not recycled: memory-safe, but the pool never sees it again
        assert_eq!(
            ws.outstanding_buffers(),
            1,
            "reset() would flag this in debug"
        );
        // Accounting saturates rather than underflowing on the next recycle.
        let w = ws.take_vec_i8(16);
        ws.recycle_vec_i8(w);
    }
}
