package omp

import "testing"

func TestKindPredicates(t *testing.T) {
	if !DirTargetTeamsDistributeParallelFor.IsTarget() {
		t.Error("TTDPF should be target")
	}
	if DirParallelFor.IsTarget() {
		t.Error("parallel for is not target")
	}
	if !DirParallelFor.IsLoopAssociated() {
		t.Error("parallel for is loop-associated")
	}
	if DirParallel.IsLoopAssociated() {
		t.Error("parallel alone is not loop-associated")
	}
	if !DirTargetTeamsDistributeParallelFor.IsLoopAssociated() {
		t.Error("TTDPF is loop-associated")
	}
}

func TestKindStrings(t *testing.T) {
	if DirTargetTeamsDistributeParallelFor.String() != "target teams distribute parallel for" {
		t.Errorf("bad spelling: %q", DirTargetTeamsDistributeParallelFor.String())
	}
	if DirectiveKind(999).String() != "DirectiveKind(999)" {
		t.Errorf("out of range: %q", DirectiveKind(999).String())
	}
	if ClauseKind(999).String() != "ClauseKind(999)" {
		t.Errorf("out of range: %q", ClauseKind(999).String())
	}
	if MapTo.String() != "to" || MapFrom.String() != "from" || MapAlloc.String() != "alloc" || MapToFrom.String() != "tofrom" {
		t.Error("map type spellings wrong")
	}
}
