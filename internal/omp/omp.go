// Package omp is the OpenMP vocabulary of the C subset used by the ParaGraph
// benchmarks: directive kinds, clause kinds and map types with their
// spellings. Package cparse parses "#pragma omp ..." lines with it, straight
// into the directive's AST node and its OMPClause children.
package omp

import (
	"fmt"
	"strings"
)

// DirectiveKind identifies an OpenMP executable directive. The set covers
// the combined constructs used by the paper's six kernel variants plus the
// building blocks they compose from.
type DirectiveKind int

// Directive kinds.
const (
	DirUnknown DirectiveKind = iota
	DirParallel
	DirFor
	DirParallelFor
	DirSIMD
	DirTarget
	DirTargetData
	DirTargetEnterData
	DirTargetExitData
	DirTeams
	DirDistribute
	DirTeamsDistribute
	DirDistributeParallelFor
	DirTargetTeams
	DirTargetTeamsDistribute
	DirTargetTeamsDistributeParallelFor
	DirBarrier
	DirCritical
	DirAtomic
	DirSingle
	DirMaster
)

var dirNames = [...]string{
	DirUnknown:                          "unknown",
	DirParallel:                         "parallel",
	DirFor:                              "for",
	DirParallelFor:                      "parallel for",
	DirSIMD:                             "simd",
	DirTarget:                           "target",
	DirTargetData:                       "target data",
	DirTargetEnterData:                  "target enter data",
	DirTargetExitData:                   "target exit data",
	DirTeams:                            "teams",
	DirDistribute:                       "distribute",
	DirTeamsDistribute:                  "teams distribute",
	DirDistributeParallelFor:            "distribute parallel for",
	DirTargetTeams:                      "target teams",
	DirTargetTeamsDistribute:            "target teams distribute",
	DirTargetTeamsDistributeParallelFor: "target teams distribute parallel for",
	DirBarrier:                          "barrier",
	DirCritical:                         "critical",
	DirAtomic:                           "atomic",
	DirSingle:                           "single",
	DirMaster:                           "master",
}

// String returns the canonical OpenMP spelling of the directive kind.
func (k DirectiveKind) String() string {
	if k >= 0 && int(k) < len(dirNames) {
		return dirNames[k]
	}
	return fmt.Sprintf("DirectiveKind(%d)", int(k))
}

// IsTarget reports whether the directive offloads to a device.
func (k DirectiveKind) IsTarget() bool {
	switch k {
	case DirTarget, DirTargetData, DirTargetEnterData, DirTargetExitData,
		DirTargetTeams, DirTargetTeamsDistribute, DirTargetTeamsDistributeParallelFor:
		return true
	}
	return false
}

// IsLoopAssociated reports whether the directive binds to a following loop.
func (k DirectiveKind) IsLoopAssociated() bool {
	switch k {
	case DirFor, DirParallelFor, DirSIMD, DirDistribute, DirTeamsDistribute,
		DirDistributeParallelFor, DirTargetTeamsDistribute,
		DirTargetTeamsDistributeParallelFor:
		return true
	}
	return false
}

// ClauseKind identifies an OpenMP clause.
type ClauseKind int

// Clause kinds.
const (
	ClauseUnknown ClauseKind = iota
	ClauseCollapse
	ClauseNumTeams
	ClauseNumThreads
	ClauseThreadLimit
	ClauseMap
	ClauseReduction
	ClausePrivate
	ClauseFirstPrivate
	ClauseLastPrivate
	ClauseShared
	ClauseSchedule
	ClauseDefault
	ClauseNowait
	ClauseIf
	ClauseDevice
	ClauseSIMDLen
)

var clauseNames = [...]string{
	ClauseUnknown:      "unknown",
	ClauseCollapse:     "collapse",
	ClauseNumTeams:     "num_teams",
	ClauseNumThreads:   "num_threads",
	ClauseThreadLimit:  "thread_limit",
	ClauseMap:          "map",
	ClauseReduction:    "reduction",
	ClausePrivate:      "private",
	ClauseFirstPrivate: "firstprivate",
	ClauseLastPrivate:  "lastprivate",
	ClauseShared:       "shared",
	ClauseSchedule:     "schedule",
	ClauseDefault:      "default",
	ClauseNowait:       "nowait",
	ClauseIf:           "if",
	ClauseDevice:       "device",
	ClauseSIMDLen:      "simdlen",
}

// ClauseByName returns the clause kind an OpenMP clause name spells.
func ClauseByName(name string) (ClauseKind, bool) {
	for k, n := range clauseNames {
		if n == name && k != 0 {
			return ClauseKind(k), true
		}
	}
	return ClauseUnknown, false
}

// String returns the OpenMP spelling of the clause kind.
func (k ClauseKind) String() string {
	if k >= 0 && int(k) < len(clauseNames) {
		return clauseNames[k]
	}
	return fmt.Sprintf("ClauseKind(%d)", int(k))
}

// MapType is the map clause direction (to / from / tofrom / alloc).
type MapType int

// Map clause directions.
const (
	MapToFrom MapType = iota // default when no type is given
	MapTo
	MapFrom
	MapAlloc
)

var mapNames = [...]string{MapToFrom: "tofrom", MapTo: "to", MapFrom: "from", MapAlloc: "alloc"}

// String returns the OpenMP spelling of the map direction.
func (m MapType) String() string {
	if m >= 0 && int(m) < len(mapNames) {
		return mapNames[m]
	}
	return "tofrom"
}

// MapTypeByName returns the map type an OpenMP map-type modifier spells.
func MapTypeByName(name string) (MapType, bool) {
	for m, n := range mapNames {
		if n == name {
			return MapType(m), true
		}
	}
	return 0, false
}

// MatchDirective returns the directive whose name is the longest run of
// leading words, and how many words that name has; DirUnknown and 0 when
// no directive name starts words. The longest name, "target teams
// distribute parallel for", has five words.
func MatchDirective(words []string) (DirectiveKind, int) {
	for n := min(len(words), 5); n > 0; n-- {
		name := strings.Join(words[:n], " ")
		for k, s := range dirNames {
			if s == name && k != 0 {
				return DirectiveKind(k), n
			}
		}
	}
	return DirUnknown, 0
}
