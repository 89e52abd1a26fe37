package match

import (
	"fmt"

	"repro/internal/mapping"
)

// NhMatch is the neighborhood matcher of §4.2, a direct transcription of
// the paper's iFuice procedure:
//
//	PROCEDURE nhMatch ( $Asso1, $Same, $Asso2 )
//	   $Temp   = compose ( $Asso1, $Same, Min, Average )
//	   $Result = compose ( $Temp, $Asso2, Min, Relative )
//	   RETURN $Result
//	END
//
// asso1 maps the objects to be matched to their neighborhood (e.g. venue ->
// publications), same is an existing same-mapping on the neighborhood
// objects, and asso2 maps the neighborhood back to the target objects on the
// other side (e.g. publications -> venue). The second composition uses the
// Relative aggregation so correspondences reached via multiple compose
// paths — objects sharing many matched neighbors — score higher.
func NhMatch(asso1, same, asso2 *mapping.Mapping) (*mapping.Mapping, error) {
	return NhMatchAgg(asso1, same, asso2, mapping.AggRelative)
}

// NhMatchAgg is NhMatch with an explicit final aggregation. The paper's
// evaluation switches to RelativeLeft when the right-hand association is
// incomplete — Google Scholar author lists miss authors, so penalizing by
// n(b) would unfairly punish correct matches (§5.4.3).
func NhMatchAgg(asso1, same, asso2 *mapping.Mapping, g mapping.PathAgg) (*mapping.Mapping, error) {
	temp, err := mapping.Compose(asso1, same, mapping.MinCombiner, mapping.AggAvg)
	if err != nil {
		return nil, fmt.Errorf("match: nhMatch first compose: %w", err)
	}
	result, err := mapping.Compose(temp, asso2, mapping.MinCombiner, g)
	if err != nil {
		return nil, fmt.Errorf("match: nhMatch second compose: %w", err)
	}
	return result, nil
}
