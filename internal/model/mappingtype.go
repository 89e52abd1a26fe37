package model

// MappingType names the semantics of a mapping, e.g. "PubAuthor" for
// "publications of author / authors of publication". Same-mappings use
// SameMappingType.
type MappingType string

// SameMappingType is the reserved semantic type of same-mappings, which
// connect instances of the same object type and represent semantic equality
// (§2.1, Definition 1).
const SameMappingType MappingType = "same"

// Cardinality classifies the semantic cardinality of an association
// mapping (§4.2, Fig. 10), which drives how promising the neighborhood
// matcher is.
type Cardinality int

// Cardinality values as discussed in §4.2 / Figure 10.
const (
	CardUnknown Cardinality = iota
	CardOneToOne
	CardOneToMany // e.g. venue -> publications
	CardManyToOne // e.g. publication -> venue
	CardManyToMany
)

// String renders the cardinality in the paper's notation.
func (c Cardinality) String() string {
	switch c {
	case CardOneToOne:
		return "1:1"
	case CardOneToMany:
		return "1:n"
	case CardManyToOne:
		return "n:1"
	case CardManyToMany:
		return "n:m"
	default:
		return "?"
	}
}
