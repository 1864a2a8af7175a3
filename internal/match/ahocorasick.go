package match

// automaton is a byte-level Aho-Corasick automaton with the goto
// function fully resolved: delta[state][b] is always a valid next
// state, so the scan loop is one table lookup per input byte with no
// failure-link chasing. out[state] lists the pattern ids of every
// literal ending at state (including those reached via suffix links,
// merged at build time). An upper-case ASCII byte steps exactly like
// its lower-case letter, so ASCII text scans as its fold without a
// folded copy. The automaton is immutable after build and safe for
// concurrent scans.
type automaton struct {
	delta [][256]int32
	out   [][]int32
}

// acLiteral associates one folded literal with the pattern it gates.
// The same pattern may register several literals (one per alternation
// branch); the same literal may gate several patterns.
type acLiteral struct {
	text string
	id   int32
}

func buildAutomaton(lits []acLiteral) *automaton {
	a := &automaton{}
	newState := func() int32 {
		var row [256]int32
		for i := range row {
			row[i] = -1
		}
		a.delta = append(a.delta, row)
		a.out = append(a.out, nil)
		return int32(len(a.delta) - 1)
	}
	root := newState()

	// Trie construction.
	for _, lit := range lits {
		s := root
		for i := 0; i < len(lit.text); i++ {
			b := lit.text[i]
			if a.delta[s][b] < 0 {
				a.delta[s][b] = newState()
			}
			s = a.delta[s][b]
		}
		a.out[s] = append(a.out[s], lit.id)
	}

	// BFS: compute failure links, merge suffix outputs, and resolve
	// missing edges so delta becomes total.
	fail := make([]int32, len(a.delta))
	var queue []int32
	for b := 0; b < 256; b++ {
		if v := a.delta[root][b]; v >= 0 {
			fail[v] = root
			queue = append(queue, v)
		} else {
			a.delta[root][b] = root
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		a.out[u] = append(a.out[u], a.out[fail[u]]...)
		for b := 0; b < 256; b++ {
			if v := a.delta[u][b]; v >= 0 {
				fail[v] = a.delta[fail[u]][b]
				queue = append(queue, v)
			} else {
				a.delta[u][b] = a.delta[fail[u]][b]
			}
		}
	}
	// Literals are folded and so hold no upper-case ASCII byte: aliasing
	// each upper-case column to its lower-case one changes no step on
	// folded text and lowers ASCII text on the fly.
	for s := range a.delta {
		for b := 'A'; b <= 'Z'; b++ {
			a.delta[s][b] = a.delta[s][b+'a'-'A']
		}
	}
	return a
}

// scan walks a folded or ASCII text once and appends to dst the id of every
// pattern whose literal occurs, deduplicated via the caller's scratch.
func (a *automaton) scan(text string, dst []int, sc *scratch) []int {
	s := int32(0)
	for i := 0; i < len(text); i++ {
		s = a.delta[s][text[i]]
		for _, id := range a.out[s] {
			if sc.seen[id] != sc.epoch {
				sc.seen[id] = sc.epoch
				dst = append(dst, int(id))
			}
		}
	}
	return dst
}
