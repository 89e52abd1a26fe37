package model

// MappingType names the semantics of a mapping, e.g. "PubAuthor" for
// "publications of author / authors of publication". Same-mappings use
// SameMappingType.
type MappingType string

// SameMappingType is the reserved semantic type of same-mappings, which
// connect instances of the same object type and represent semantic equality
// (§2.1, Definition 1).
const SameMappingType MappingType = "same"
