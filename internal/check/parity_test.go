package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotFieldParity is the reflection-based backstop behind the
// snapstate analyzer: for every runtime, capture a mid-run snapshot, keep
// executing so the system state diverges, restore, and re-capture. The two
// captures are compared field by field with reflect — through every nested
// struct, slice, pointer, and map — so a field that Snapshot or Restore
// silently drops shows up as a named path (e.g. ".procs[1].sections[0].wbuf"),
// not just a fingerprint mismatch. The walk reads unexported fields, which
// is exactly the point: the snapshot structs are the closed set of captured
// state, and no field may escape the round trip.
func TestSnapshotFieldParity(t *testing.T) {
	for _, tgt := range SweepTargets() {
		rt := tgt.(interface {
			roundTrip(*testing.T) (mid, end, again any)
		})
		t.Run(strings.TrimSuffix(tgt.Name(), "-sweep"), func(t *testing.T) {
			mid, end, again := rt.roundTrip(t)
			if diff := deepDiff("", reflect.ValueOf(mid).Elem(), reflect.ValueOf(end).Elem()); diff == "" {
				t.Fatal("completion snapshot is bit-identical to the mid-run capture; the parity check has no teeth")
			}
			if diff := deepDiff("", reflect.ValueOf(mid).Elem(), reflect.ValueOf(again).Elem()); diff != "" {
				t.Errorf("snapshot round trip dropped state at %s", diff)
			}
		})
	}
}

// roundTrip builds the target's System and captures it three times: mid-run
// (past the first few quanta, so the capture holds live speculative state),
// at completion (every live field has moved on), and after restoring the
// mid-run capture. Captures are fresh (zero reuse), so buffer reuse cannot
// mask a dropped copy.
func (tg *target[P, R]) roundTrip(t *testing.T) (mid, end, again any) {
	sys, err := tg.build(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetScheduler(NewReplay(nil, 12))
	paused := 0
	done, err := sys.RunUntil(func() bool { paused++; return paused > 3 })
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("sweep workload finished before the mid-run capture; deepen it")
	}
	var fresh P
	m := sys.Snapshot(fresh)
	if _, err := sys.RunUntil(nil); err != nil {
		t.Fatal(err)
	}
	e := sys.Snapshot(fresh)
	sys.Restore(m)
	return m, e, sys.Snapshot(fresh)
}

// deepDiff walks two values of the same type and returns the dotted path of
// the first difference, or "" when they are bit-equal. It descends through
// unexported fields — reflect permits reading (not interfacing) them — so
// the whole captured state is in scope.
func deepDiff(path string, a, b reflect.Value) string {
	if a.Type() != b.Type() {
		return path + ": type mismatch"
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		if a.IsNil() {
			return ""
		}
		return deepDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		st := a.Type()
		for i := 0; i < a.NumField(); i++ {
			if d := deepDiff(path+"."+st.Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := deepDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() { //bulklint:ordered any difference fails the test; order only picks which one is named
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing key", path, k)
			}
			if d := deepDiff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
	default:
		return path + ": unsupported kind " + a.Kind().String()
	}
	return ""
}
