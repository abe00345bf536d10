package registry

import (
	"errors"
	"testing"
	"time"
)

func TestReservePublishAbandon(t *testing.T) {
	r := New[string](10)
	if err := r.Reserve("a", 4); err != nil {
		t.Fatal(err)
	}
	// A held name is absent to readers and refused to a second Reserve.
	if _, ok := r.Get("a"); ok {
		t.Fatal("a reserved name is visible to Get")
	}
	if _, ok := r.GetBytes([]byte("a")); ok {
		t.Fatal("a reserved name is visible to GetBytes")
	}
	if err := r.Reserve("a", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("second Reserve of a held name: %v, want ErrExists", err)
	}
	if got := r.List(); len(got) != 0 || r.Len() != 0 {
		t.Fatalf("List %v, Len %d with only a reservation", got, r.Len())
	}
	if err := r.Publish("a", "A"); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Get("a"); !ok || v != "A" {
		t.Fatalf("Get(a) = %q, %v after Publish", v, ok)
	}
	if err := r.Reserve("a", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("Reserve of a live name: %v, want ErrExists", err)
	}

	// The budget counts live values and reservations; Abandon refunds.
	if err := r.Reserve("b", 7); !errors.Is(err, ErrBudget) {
		t.Fatalf("Reserve past the budget: %v, want ErrBudget", err)
	}
	if err := r.Reserve("b", 6); err != nil {
		t.Fatal(err)
	}
	if r.Used() != 10 {
		t.Fatalf("Used %d, want 10", r.Used())
	}
	r.Abandon("b")
	r.Abandon("a") // a live name is not a reservation: nothing happens
	if _, ok := r.Get("a"); !ok || r.Used() != 4 {
		t.Fatalf("after Abandon: a live %v, Used %d, want true, 4", ok, r.Used())
	}
	if err := r.Reserve("b", 6); err != nil {
		t.Fatalf("Reserve after the refund: %v", err)
	}
	if err := r.Publish("b", "B"); err != nil {
		t.Fatal(err)
	}
	if got := r.List(); len(got) != 2 || got[0] != "A" || got[1] != "B" || r.Len() != 2 {
		t.Fatalf("List %v, Len %d, want [A B] in name order", got, r.Len())
	}

	// Remove refunds; with hold the name stays reserved until Abandon.
	if v, ok := r.Remove("b", false); !ok || v != "B" || r.Used() != 4 {
		t.Fatalf("Remove(b) = %q, %v, Used %d", v, ok, r.Used())
	}
	if _, ok := r.Remove("b", false); ok {
		t.Fatal("Remove of an absent name reported it live")
	}
	if _, ok := r.Remove("a", true); !ok || r.Used() != 0 || r.Len() != 0 {
		t.Fatalf("Remove(a, hold): ok %v, Used %d, Len %d", ok, r.Used(), r.Len())
	}
	if err := r.Reserve("a", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("Reserve of a name held by Remove: %v, want ErrExists", err)
	}
	if _, ok := r.Remove("a", false); ok {
		t.Fatal("Remove took a held name")
	}
	r.Abandon("a")
	if err := r.Reserve("a", 10); err != nil {
		t.Fatalf("Reserve after the hold ended: %v", err)
	}
}

func TestUnlimitedBudget(t *testing.T) {
	r := New[int](0)
	for _, name := range []string{"a", "b"} {
		if err := r.Reserve(name, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	if r.Used() != 2<<40 {
		t.Fatalf("Used %d", r.Used())
	}
}

// Close refuses new reservations, waits until every reservation made
// before it is published or abandoned, and turns a later Publish into
// ErrClosed, leaving the name held until Abandon.
func TestCloseWaitsForReservations(t *testing.T) {
	r := New[int](0)
	for _, name := range []string{"pub", "aban", "late", "live"} {
		if err := r.Reserve(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Publish("live", 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Remove("live", true); !ok {
		t.Fatal("Remove(live) found nothing")
	}

	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	for {
		if err := r.Reserve("new", 1); errors.Is(err, ErrClosed) {
			break
		} else if err == nil {
			r.Abandon("new")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Publish("pub", 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish after Close began: %v, want ErrClosed", err)
	}
	if _, ok := r.Get("pub"); ok {
		t.Fatal("a refused Publish registered its value")
	}
	for _, name := range []string{"pub", "aban", "late"} {
		select {
		case <-closed:
			t.Fatalf("Close returned with %q still reserved", name)
		case <-time.After(10 * time.Millisecond):
		}
		r.Abandon(name)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while Remove's hold of live was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	r.Abandon("live")
	<-closed
	if r.Used() != 0 || r.Len() != 0 {
		t.Fatalf("after Close: Used %d, Len %d", r.Used(), r.Len())
	}
	// After Close a Remove holds nothing, so there is nothing to wait for.
	r2 := New[int](0)
	if err := r2.Reserve("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Publish("x", 1); err != nil {
		t.Fatal(err)
	}
	r2.Close()
	if _, ok := r2.Remove("x", true); !ok {
		t.Fatal("Remove after Close found nothing")
	}
	if err := r2.Reserve("x", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve after Close: %v, want ErrClosed", err)
	}
	r2.Close()
}
