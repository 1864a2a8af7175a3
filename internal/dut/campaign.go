package dut

import (
	"math/rand"
	"sort"

	"repro/pkg/domain"
)

// Strategy produces the next stimulus of a testing campaign.
type Strategy interface {
	// Name identifies the strategy in results.
	Name() string
	// Next returns the stimulus for test number i.
	Next(i int) Stimulus
}

// RandomStrategy is the Constrained-Random-Verification baseline: it
// samples trigger sets, contexts and observation points uniformly from
// the scheme, without any errata-derived knowledge.
type RandomStrategy struct {
	rng       *rand.Rand
	triggers  []string
	contexts  []string
	monitors  []string
	nTriggers int
	nMonitors int
}

// NewRandomStrategy builds the CRV baseline over the full scheme.
func NewRandomStrategy(scheme *domain.Scheme, msrs []string, cfg Config, seed int64) *RandomStrategy {
	monitors := append([]string(nil), scheme.CategoryIDs(domain.Effect)...)
	monitors = append(monitors, msrs...)
	return &RandomStrategy{
		rng:       rand.New(rand.NewSource(seed)),
		triggers:  scheme.CategoryIDs(domain.Trigger),
		contexts:  append([]string{""}, scheme.CategoryIDs(domain.Context)...),
		monitors:  monitors,
		nTriggers: cfg.MaxTriggersPerTest,
		nMonitors: cfg.ObservationBudget,
	}
}

// Name implements Strategy.
func (s *RandomStrategy) Name() string { return "random-crv" }

// Next implements Strategy.
func (s *RandomStrategy) Next(int) Stimulus {
	return Stimulus{
		Triggers: sampleDistinct(s.rng, s.triggers, s.nTriggers),
		Context:  s.contexts[s.rng.Intn(len(s.contexts))],
		Monitors: sampleDistinct(s.rng, s.monitors, s.nMonitors),
	}
}

func sampleDistinct(rng *rand.Rand, pool []string, n int) []string {
	if n > len(pool) {
		n = len(pool)
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// DirectiveInput is one campaign directive consumed by the directed
// strategy: the trigger set to apply together, the contexts to cover
// and the observation points to monitor. It mirrors the facade's
// Directive type without importing it (internal packages cannot import
// the root package).
type DirectiveInput struct {
	Triggers []string
	Contexts []string
	Monitors []string
}

// DirectedStrategy drives the campaign with RemembERR-derived
// directives: it cycles through them, padding trigger sets and
// observation points with directive-local knowledge, and rotating
// through the directive's contexts.
type DirectedStrategy struct {
	rng        *rand.Rand
	directives []DirectiveInput
	triggers   []string
	nTriggers  int
	nMonitors  int
}

// NewDirectedStrategy builds the RemembERR-directed strategy.
func NewDirectedStrategy(directives []DirectiveInput, scheme *domain.Scheme, cfg Config, seed int64) *DirectedStrategy {
	return &DirectedStrategy{
		rng:        rand.New(rand.NewSource(seed)),
		directives: append([]DirectiveInput(nil), directives...),
		triggers:   scheme.CategoryIDs(domain.Trigger),
		nTriggers:  cfg.MaxTriggersPerTest,
		nMonitors:  cfg.ObservationBudget,
	}
}

// Name implements Strategy.
func (s *DirectedStrategy) Name() string { return "rememberr-directed" }

// Next implements Strategy.
func (s *DirectedStrategy) Next(i int) Stimulus {
	if len(s.directives) == 0 {
		return Stimulus{}
	}
	d := s.directives[i%len(s.directives)]
	stim := Stimulus{
		Triggers: append([]string(nil), d.Triggers...),
		Monitors: append([]string(nil), d.Monitors...),
	}
	// Rotate through the directive's contexts (disjunctive: any one
	// suffices for the bugs behind the directive).
	if len(d.Contexts) > 0 {
		stim.Context = d.Contexts[(i/len(s.directives))%len(d.Contexts)]
	}
	// Pad the trigger set with random extra triggers up to the budget:
	// the directive pins the necessary conjunction, the padding explores
	// around it.
	for len(stim.Triggers) < s.nTriggers {
		t := s.triggers[s.rng.Intn(len(s.triggers))]
		if !contains(stim.Triggers, t) {
			stim.Triggers = append(stim.Triggers, t)
		}
	}
	if len(stim.Monitors) > s.nMonitors {
		stim.Monitors = stim.Monitors[:s.nMonitors]
	}
	return stim
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// CampaignResult summarizes one campaign run.
type CampaignResult struct {
	// Strategy is the strategy name.
	Strategy string
	// Tests is the number of executed stimuli.
	Tests int
	// Detected is the number of distinct bugs detected.
	Detected int
	// Triggered is the number of distinct bugs triggered (detected or
	// not — triggering without observing is a missed detection).
	Triggered int
	// FirstDetection maps bug IDs to the test index of their first
	// detection.
	FirstDetection map[string]int
	// DetectionCurve[i] is the number of distinct bugs detected after
	// i+1 tests, sampled every SampleEvery tests.
	DetectionCurve []int
	// SampleEvery is the curve sampling interval.
	SampleEvery int
}

// RunCampaign executes a strategy against the DUT for the given number
// of tests.
func RunCampaign(d *DUT, s Strategy, tests, sampleEvery int) *CampaignResult {
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	res := &CampaignResult{
		Strategy:       s.Name(),
		Tests:          tests,
		FirstDetection: make(map[string]int),
		SampleEvery:    sampleEvery,
	}
	triggered := map[string]bool{}
	for i := 0; i < tests; i++ {
		r := d.Execute(s.Next(i))
		for _, id := range r.Triggered {
			triggered[id] = true
		}
		for _, id := range r.Detected {
			if _, ok := res.FirstDetection[id]; !ok {
				res.FirstDetection[id] = i
			}
		}
		if (i+1)%sampleEvery == 0 {
			res.DetectionCurve = append(res.DetectionCurve, len(res.FirstDetection))
		}
	}
	res.Detected = len(res.FirstDetection)
	res.Triggered = len(triggered)
	return res
}

// MedianTestsToDetect returns the median first-detection index over the
// detected bugs, or -1 when nothing was detected.
func (r *CampaignResult) MedianTestsToDetect() int {
	if len(r.FirstDetection) == 0 {
		return -1
	}
	var idxs []int
	for _, i := range r.FirstDetection {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs[len(idxs)/2]
}
