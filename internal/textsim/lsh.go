package textsim

import (
	"hash/fnv"
	"sort"
)

// MinHash/LSH candidate generation for duplicate detection. The exact
// candidate scan of dedup is O(n^2) in the number of title clusters;
// that is fine at the paper's corpus size (~750 Intel clusters) but not
// at the scale the paper envisions when errata of more vendors and ISAs
// are folded in. The LSH index finds high-Jaccard candidate pairs in
// near-linear time, trading a small recall loss for scalability; the
// ablation benchmarks quantify the trade.

// MinHasher computes fixed-length MinHash signatures over token sets.
type MinHasher struct {
	seeds []uint64
}

// NewMinHasher creates a hasher with the given signature length.
func NewMinHasher(signatureLen int) *MinHasher {
	if signatureLen <= 0 {
		signatureLen = 64
	}
	seeds := make([]uint64, signatureLen)
	// Deterministic seed sequence (splitmix64).
	x := uint64(0x9E3779B97F4A7C15)
	for i := range seeds {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		seeds[i] = z ^ (z >> 31)
	}
	return &MinHasher{seeds: seeds}
}

// SignatureLen returns the signature length.
func (m *MinHasher) SignatureLen() int { return len(m.seeds) }

// Signature computes the MinHash signature of s's token set.
func (m *MinHasher) Signature(s string) []uint64 {
	sig := make([]uint64, len(m.seeds))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for tok := range tokenSet(s) {
		h := fnv.New64a()
		h.Write([]byte(tok))
		base := h.Sum64()
		for i, seed := range m.seeds {
			// One hash per permutation: mix the token hash with the seed.
			v := mix(base ^ seed)
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD
	z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53
	return z ^ (z >> 33)
}

// SignatureSimilarity estimates Jaccard similarity from two signatures.
func SignatureSimilarity(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// LSHIndex buckets MinHash signatures into bands; two items collide in
// the index when they agree on all rows of at least one band, which
// happens with high probability iff their Jaccard similarity is high.
type LSHIndex struct {
	hasher *MinHasher
	bands  int
	rows   int
	texts  []string
	sigs   [][]uint64
	// buckets[band][bucketHash] = item indices
	buckets []map[uint64][]int
}

// NewLSHIndex creates an index with the given number of bands and rows
// per band (signature length = bands*rows). With b bands of r rows, the
// collision probability for similarity s is 1-(1-s^r)^b; b=16, r=4
// puts the threshold near s ~= 0.5.
func NewLSHIndex(bands, rows int) *LSHIndex {
	if bands <= 0 {
		bands = 16
	}
	if rows <= 0 {
		rows = 4
	}
	idx := &LSHIndex{
		hasher:  NewMinHasher(bands * rows),
		bands:   bands,
		rows:    rows,
		buckets: make([]map[uint64][]int, bands),
	}
	for i := range idx.buckets {
		idx.buckets[i] = make(map[uint64][]int)
	}
	return idx
}

// Add inserts a text and returns its item index.
func (x *LSHIndex) Add(text string) int {
	id := len(x.texts)
	x.texts = append(x.texts, text)
	sig := x.hasher.Signature(text)
	x.sigs = append(x.sigs, sig)
	for b := 0; b < x.bands; b++ {
		key := bandKey(sig[b*x.rows : (b+1)*x.rows])
		x.buckets[b][key] = append(x.buckets[b][key], id)
	}
	return id
}

func bandKey(rows []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range rows {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// Len returns the number of indexed items.
func (x *LSHIndex) Len() int { return len(x.texts) }

// CandidatePairs returns all item pairs (i<j) colliding in at least one
// band whose exact Jaccard similarity reaches min, sorted by decreasing
// similarity. Only colliding pairs are examined, so the cost scales
// with the number of collisions rather than n^2.
func (x *LSHIndex) CandidatePairs(min float64) []Pair {
	seen := make(map[[2]int]bool)
	var out []Pair
	for b := 0; b < x.bands; b++ {
		for _, ids := range x.buckets[b] {
			if len(ids) < 2 {
				continue
			}
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					a, c := ids[i], ids[j]
					if a > c {
						a, c = c, a
					}
					key := [2]int{a, c}
					if seen[key] {
						continue
					}
					seen[key] = true
					if s := Jaccard(x.texts[a], x.texts[c]); s >= min {
						out = append(out, Pair{I: a, J: c, Score: s})
					}
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].I != out[j].I {
			return out[i].I < out[j].I
		}
		return out[i].J < out[j].J
	})
	return out
}
