package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversAllValues(t *testing.T) {
	r := New(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.Intn(8)] = true
	}
	if len(seen) != 8 {
		t.Errorf("Intn(8) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Range(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Range(2,5) = %g out of bounds", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %g, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Errorf("Norm variance = %g, want ~4", variance)
	}
}

func TestJitter(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90 || v >= 110 {
			t.Fatalf("Jitter(100, 0.1) = %g out of [90,110)", v)
		}
	}
	if got := r.Jitter(100, 0); got != 100 {
		t.Errorf("Jitter with frac 0 should return base, got %g", got)
	}
	// Jitter must always be positive even with extreme fractions.
	for i := 0; i < 1000; i++ {
		if v := r.Jitter(1, 2); v <= 0 {
			t.Fatalf("Jitter produced non-positive %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n % 64)
		p := New(seed).Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffle(t *testing.T) {
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r := New(13)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// The child stream must not equal the parent's continuation.
	collisions := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("Split streams collided %d/100 times", collisions)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	// Must not panic and must produce values.
	_ = r.Uint64()
	_ = r.Float64()
}

func TestSplitCellDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for cell := uint64(0); cell < 100; cell++ {
			if Split(seed, cell) != Split(seed, cell) {
				t.Fatalf("Split(%d, %d) not deterministic", seed, cell)
			}
		}
	}
}

func TestSplitCellStreamsDistinct(t *testing.T) {
	// Streams for distinct cells of the same base seed must diverge
	// immediately, and the cell-0 stream must differ from the raw seed's.
	seen := map[uint64]uint64{New(7).Uint64(): ^uint64(0)}
	for cell := uint64(0); cell < 1000; cell++ {
		first := New(Split(7, cell)).Uint64()
		if prev, dup := seen[first]; dup {
			t.Fatalf("cells %d and %d share a first draw", prev, cell)
		}
		seen[first] = cell
	}
}

// TestSplitOrderIndependence is the property the parallel sweep relies
// on: per-cell streams derived with Split are identical no matter in
// what order (or on how many goroutines) the cells draw. Sequential
// consumption and a deliberately scrambled consumption order must
// observe the same per-cell sequences.
func TestSplitOrderIndependence(t *testing.T) {
	const cells, draws = 16, 32
	sequential := make([][]uint64, cells)
	for c := 0; c < cells; c++ {
		r := New(Split(12345, uint64(c)))
		for d := 0; d < draws; d++ {
			sequential[c] = append(sequential[c], r.Uint64())
		}
	}
	// Scrambled: interleave one draw at a time across cells in a
	// rotating order, the worst case for any hidden shared state.
	rngs := make([]*RNG, cells)
	for c := range rngs {
		rngs[c] = New(Split(12345, uint64(c)))
	}
	scrambled := make([][]uint64, cells)
	for d := 0; d < draws; d++ {
		for i := 0; i < cells; i++ {
			c := (i*5 + d) % cells
			for len(scrambled[c]) > d {
				c = (c + 1) % cells
			}
			scrambled[c] = append(scrambled[c], rngs[c].Uint64())
		}
	}
	for c := 0; c < cells; c++ {
		for d := 0; d < draws; d++ {
			if sequential[c][d] != scrambled[c][d] {
				t.Fatalf("cell %d draw %d: sequential %d != scrambled %d",
					c, d, sequential[c][d], scrambled[c][d])
			}
		}
	}
}

// TestPermIntoMatchesPerm pins the hot-path contract: PermInto must
// consume exactly the same RNG draws and produce exactly the same
// permutation as Perm, so switching an engine to the buffer-reusing
// variant cannot change any recorded schedule.
func TestPermIntoMatchesPerm(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n % 64)
		a, b := New(seed), New(seed)
		want := a.Perm(size)
		got := make([]int, size)
		b.PermInto(got)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		// Both generators must land in the same state.
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNormPosAlwaysPositive sweeps parameter regimes — including the
// pathological ones (negative mean, zero stddev) — and checks every
// draw is strictly positive. This is the contract that lets trace
// generation sample work and deadlines without per-caller re-clamping.
func TestNormPosAlwaysPositive(t *testing.T) {
	f := func(seed uint64, meanRaw, stddevRaw int16) bool {
		mean := float64(meanRaw) / 100
		stddev := math.Abs(float64(stddevRaw)) / 100
		r := New(seed)
		for i := 0; i < 64; i++ {
			if v := r.NormPos(mean, stddev); v <= 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNormPosMatchesNormWhenPositive pins the stream contract: while
// the underlying Norm draws stay positive, NormPos returns exactly the
// same values — so switching a positive-regime sampler from manual
// clamping to NormPos cannot perturb recorded streams.
func TestNormPosMatchesNormWhenPositive(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		want := a.Norm(100, 1) // ~100σ above zero: never non-positive
		got := b.NormPos(100, 1)
		if want != got {
			t.Fatalf("draw %d: Norm %g != NormPos %g", i, want, got)
		}
	}
}

// TestNormPosDegenerate covers the bounded-fallback path directly.
func TestNormPosDegenerate(t *testing.T) {
	r := New(1)
	if v := r.NormPos(-1e9, 0); v <= 0 {
		t.Fatalf("degenerate fallback returned %g", v)
	}
	if v := r.NormPos(-1e9, 1e-6); v <= 0 {
		t.Fatalf("negative-mean fallback returned %g", v)
	}
}

// refIntn is Intn's historical formula: compute the rejection threshold
// 2^64 mod n on every call, then reject draws below it.
func refIntn(r *RNG, n int) int {
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// unmix inverts the splitmix64 output finalizer.
func unmix(z uint64) uint64 {
	inv := func(a uint64) uint64 { // a·x ≡ 1 mod 2^64, Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z ^= z>>31 ^ z>>62
	z *= inv(0x94D049BB133111EB)
	z ^= z>>27 ^ z>>54
	z *= inv(0xBF58476D1CE4E5B9)
	z ^= z>>30 ^ z>>60
	return z
}

// planted returns a generator whose next draw is v, so a test can
// force Intn's rejection branch at small bounds, where it is otherwise
// unreachable.
func planted(v uint64) *RNG {
	return &RNG{state: unmix(v) - 0x9E3779B97F4A7C15}
}

func TestPlantedDraw(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 12345, math.MaxUint64} {
		if got := planted(v).Uint64(); got != v {
			t.Fatalf("planted(%d) drew %d", v, got)
		}
	}
}

// TestIntnMatchesReference pins Intn's stream: the same values and the
// same number of draws as the historical formula for every bound,
// including bounds where rejection is common (n = 3<<61 has threshold
// 2^62, so a quarter of draws are redrawn; n = 1<<62+1 takes the slow
// comparison on a quarter of draws) and planted draws that hit the
// rejection branch at small bounds.
func TestIntnMatchesReference(t *testing.T) {
	bounds := []int{1, 2, 3, 5, 6, 7, 10, 16, 17, 64, 100, 1000, 1<<31 - 1,
		3 << 61, 1<<62 + 1, 5 << 60, math.MaxInt64, math.MaxInt64 - 2}
	rejected := 0
	for seed := uint64(0); seed < 200; seed++ {
		a, b := New(seed), New(seed)
		for _, n := range bounds {
			for i := 0; i < 50; i++ {
				before := a.state
				if got, want := a.Intn(n), refIntn(b, n); got != want {
					t.Fatalf("seed %d n %d draw %d: Intn = %d, reference = %d", seed, n, i, got, want)
				}
				if a.state != b.state {
					t.Fatalf("seed %d n %d draw %d: Intn consumed a different number of draws", seed, n, i)
				}
				if a.state != before+0x9E3779B97F4A7C15 {
					rejected++
				}
			}
		}
	}
	if rejected == 0 {
		t.Error("no draw was ever rejected: the rejection branch went unexercised")
	}
	for n := 1; n <= 70; n++ {
		for _, v := range []uint64{0, 1, 2, uint64(n) - 1, uint64(n)} {
			a, b := planted(v), planted(v)
			if got, want := a.Intn(n), refIntn(b, n); got != want || a.state != b.state {
				t.Fatalf("planted %d, n %d: Intn = %d, reference = %d (states equal: %v)",
					v, n, got, want, a.state == b.state)
			}
		}
	}
}

// TestSkipPermMatchesPermInto pins the skip contract the victim walk
// relies on: SkipPerm(n) leaves the generator exactly where PermInto
// of an n-slice does, for ordinary seeds and for planted draws that
// force a rejection on the first (largest) bound.
func TestSkipPermMatchesPermInto(t *testing.T) {
	buf := make([]int, 70)
	check := func(label string, a, b *RNG, n int) {
		t.Helper()
		a.PermInto(buf[:n])
		b.SkipPerm(n)
		if a.state != b.state {
			t.Fatalf("%s n %d: SkipPerm left the generator in a different state", label, n)
		}
	}
	for seed := uint64(0); seed < 500; seed++ {
		for n := 0; n <= 70; n++ {
			check("seed", New(seed*0x9E3779B97F4A7C15+uint64(n)), New(seed*0x9E3779B97F4A7C15+uint64(n)), n)
		}
	}
	for n := 0; n <= 70; n++ {
		for _, v := range []uint64{0, 1, 3} {
			check("planted", planted(v), planted(v), n)
		}
	}
}
