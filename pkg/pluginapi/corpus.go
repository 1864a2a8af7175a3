package pluginapi

import "time"

// DocProfile describes one specification-update document to generate.
type DocProfile struct {
	// Key is the document key, e.g. "intel-06".
	Key string
	// Intel is true for Intel Core documents.
	Intel bool
	// Label is the generation/family label of Table III.
	Label string
	// Reference is the vendor document reference of Table III.
	Reference string
	// Prefix is the erratum-ID prefix for Intel documents (e.g. "SKL");
	// empty for AMD, which uses global numeric identifiers.
	Prefix string
	// GenIndex is the Intel generation number (1..12); 0 for AMD.
	GenIndex int
	// Released is the initial release date of the CPU series.
	Released time.Time
	// LastUpdate is the date of the final document revision.
	LastUpdate time.Time
	// Count is the number of erratum entries the document must contain.
	Count int
	// RevisionMonths is the average number of months between revisions.
	RevisionMonths int
}

// Weighted is an identifier with a sampling weight, one row of a
// discrete sampling distribution.
type Weighted struct {
	// ID is the sampled identifier (a category id, an MSR name, or a
	// numeral for count distributions).
	ID string
	// Weight is the unnormalized sampling weight.
	Weight float64
}

// VendorBias multiplies a weight per vendor.
type VendorBias struct {
	Intel float64
	AMD   float64
}

// Calibration holds the corpus-level targets the generator is
// calibrated — and verified — against (Sections IV-A and V-B of the
// paper for the built-in profile).
type Calibration struct {
	// IntelTotal is the number of Intel erratum entries.
	IntelTotal int
	// IntelUnique is the number of unique Intel errata.
	IntelUnique int
	// AMDTotal is the number of AMD erratum entries.
	AMDTotal int
	// AMDUnique is the number of unique AMD errata.
	AMDUnique int

	// SharedGens6To10 is the number of bugs shared by all Intel Core
	// generations 6 to 10 (Figure 4). Zero disables the pinned
	// shared-lineage plan.
	SharedGens6To10 int
	// LineagesCore1To10 is the number of bugs present from Core 1 to
	// Core 10 (Section IV-B2). Zero disables those lineages.
	LineagesCore1To10 int

	// ComplexConditionFractionIntel is the fraction of unique Intel
	// errata mentioning a "complex set of conditions".
	ComplexConditionFractionIntel float64
	// ComplexConditionFractionAMD is the AMD counterpart.
	ComplexConditionFractionAMD float64
	// TrivialTriggerFraction is the fraction of errata with no clear or
	// only trivial triggers, excluded from Figure 11.
	TrivialTriggerFraction float64
	// NoWorkaroundFractionIntel is the fraction of unique Intel errata
	// without any suggested workaround (Figure 6).
	NoWorkaroundFractionIntel float64
	// NoWorkaroundFractionAMD is the AMD counterpart.
	NoWorkaroundFractionAMD float64
}

// CorpusSpec is the full corpus generation profile: the document set
// and every sampling distribution the generator draws from. All slices
// and maps must be treated as immutable after registration.
type CorpusSpec struct {
	// IntelDocs lists the Intel documents in generation order.
	IntelDocs []DocProfile
	// AMDDocs lists the AMD documents in family order.
	AMDDocs []DocProfile
	// Calibration holds the corpus-level targets.
	Calibration Calibration

	// TriggerWeights is the marginal distribution over abstract
	// trigger categories (Figure 10).
	TriggerWeights []Weighted
	// VendorTriggerBias multiplies trigger weights per vendor
	// (Figures 15 and 16).
	VendorTriggerBias map[string]VendorBias
	// TriggerPairBoost boosts the conditional probability of the
	// second trigger given the first (Figure 12).
	TriggerPairBoost map[[2]string]float64
	// TriggerCountWeights is the distribution of the number of
	// non-trivial triggers per erratum (Figure 11).
	TriggerCountWeights []Weighted

	// ContextWeights is the marginal distribution over context
	// categories (Figure 17).
	ContextWeights []Weighted
	// ContextCountWeights is the distribution of contexts per erratum.
	ContextCountWeights []Weighted

	// EffectWeights is the marginal distribution over effect
	// categories (Figure 18).
	EffectWeights []Weighted
	// EffectCountWeights is the distribution of effects per erratum.
	EffectCountWeights []Weighted

	// MSRWeights distributes the observable-effect MSR for Intel
	// errata with register-visible effects (Figure 19).
	MSRWeights []Weighted
	// AMDMSRWeights is the AMD counterpart.
	AMDMSRWeights []Weighted

	// WorkaroundWeightsIntel distributes Intel workaround categories
	// (Figure 6); identifiers are domain.WorkaroundCategory labels.
	WorkaroundWeightsIntel []Weighted
	// WorkaroundWeightsAMD is the AMD counterpart.
	WorkaroundWeightsAMD []Weighted
	// FixWeights distributes fix statuses (Figure 7); identifiers are
	// domain.FixStatus labels.
	FixWeights []Weighted
}
