package moma

import (
	"repro/internal/block"
	"repro/internal/eval"
	"repro/internal/fuse"
	"repro/internal/live"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/script"
	"repro/internal/sim"
	"repro/internal/sources"
	"repro/internal/store"
	"repro/internal/workflow"
)

// Object model (package model).
type (
	// PDS names a physical data source.
	PDS = model.PDS
	// LDS is a logical data source: one object type within one physical
	// source.
	LDS = model.LDS
	// ID identifies an instance within its LDS.
	ID = model.ID
	// Instance is an object instance with attribute values.
	Instance = model.Instance
	// ObjectSet is a set of instances of one LDS.
	ObjectSet = model.ObjectSet
)

// NewObjectSet returns an empty set of instances of one LDS.
var NewObjectSet = model.NewObjectSet

// Common object types.
const (
	Publication = model.Publication
	Venue       = model.Venue
)

// Mappings and operators (package mapping).
type (
	// Mapping is an instance-level mapping table.
	Mapping = mapping.Mapping
	// Correspondence is one (domain, range, sim) row.
	Correspondence = mapping.Correspondence
	// Combiner configures the similarity combination function f.
	Combiner = mapping.Combiner
	// Threshold keeps correspondences at or above T.
	Threshold = mapping.Threshold
	// BestN keeps the top-n correspondences per instance.
	BestN = mapping.BestN
)

// Mapping constructors, operators and constants.
var (
	NewMapping     = mapping.New
	NewSameMapping = mapping.NewSame
	IdentityOf     = mapping.Identity
	Merge          = mapping.Merge
	Compose        = mapping.Compose

	Avg0Combiner = mapping.Avg0Combiner
	MinCombiner  = mapping.MinCombiner
	Min0Combiner = mapping.Min0Combiner
	MaxCombiner  = mapping.MaxCombiner
)

// Compose path aggregations, selection sides and combiner kinds.
const (
	AggMax = mapping.AggMax

	DomainSide = mapping.DomainSide
	BothSides  = mapping.BothSides

	KindWeighted = mapping.Weighted
)

// Built-in similarity functions.
var (
	Trigram    = sim.Trigram
	MongeElkan = sim.MongeElkanJaroWinkler
	PersonName = sim.PersonName
	YearExact  = sim.YearExact
	// NumericProximity builds a measure decaying linearly with |a-b|/scale
	// — useful for prices, page counts or other numeric attributes.
	NumericProximity = sim.NumericProximity
)

// Matchers (package match) and blocking (package block).
type (
	// Matcher produces a same-mapping between two object sets.
	Matcher = match.Matcher
	// AttributeMatcher is the generic attribute matcher of §2.2.
	AttributeMatcher = match.Attribute
	// MultiAttributeMatcher combines several attribute pairs.
	MultiAttributeMatcher = match.MultiAttribute
	// AttrPair configures one comparison of the multi-attribute matcher.
	AttrPair = match.AttrPair
	// TokenBlocking pairs instances sharing attribute tokens.
	TokenBlocking = block.TokenBlocking
)

// NhMatch is the neighborhood matcher of §4.2.
var NhMatch = match.NhMatch

// Store is a named mapping collection (the repository).
type Store = store.Store

// CSV interchange of mappings and object sets.
var (
	WriteMappingCSV   = store.WriteMappingCSV
	ReadMappingCSV    = store.ReadMappingCSV
	WriteObjectSetCSV = store.WriteObjectSetCSV
	ReadObjectSetCSV  = store.ReadObjectSetCSV
)

// Workflow is a named sequence of match steps (package workflow); a Step's
// selections are Selection values such as Threshold.
type (
	Workflow  = workflow.Workflow
	Step      = workflow.Step
	Selection = mapping.Selection
)

// NewWorkflow starts a workflow definition.
var NewWorkflow = workflow.New

// Value is a script value (mapping, object set, number, string), the
// result of System.RunScript.
type Value = script.Value

// Compare evaluates a mapping against a perfect one: precision, recall and
// F-measure (package eval).
var Compare = eval.Compare

// FuseRule fuses one attribute under an aggregation (package fuse).
type FuseRule = fuse.Rule

// Fusion helpers.
var (
	NewFuser   = fuse.NewFuser
	FirstValue = fuse.First
	MaxNumeric = fuse.MaxNumeric
	SumNumeric = fuse.SumNumeric
)

// Online resolution (package live).
type (
	// LiveResolver answers single-record match queries against a resident,
	// incrementally-maintained object set.
	LiveResolver = live.Resolver
	// LiveConfig configures a LiveResolver (blocking, columns, threshold).
	LiveConfig = live.Config
	// LiveColumn configures one scored attribute comparison.
	LiveColumn = live.Column
)

// DataSource is one derived physical source of the synthetic bibliographic
// world (package sources), the evaluation substrate substituting for DBLP /
// ACM DL / Google Scholar.
type DataSource = sources.Source

// Dataset helpers.
var (
	SmallConfig     = sources.SmallConfig
	GenerateDataset = sources.Generate
	NewGSQuery      = sources.NewGSQuery
)
