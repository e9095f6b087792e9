package registry

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestAddRejectsEmptyAndDuplicateNames(t *testing.T) {
	tab := New[int]("widget")
	tab.Add("a", 1)
	for name, add := range map[string]func(){
		"empty name": func() { tab.Add("", 2) },
		"duplicate":  func() { tab.Add("a", 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Add did not panic", name)
				}
			}()
			add()
		}()
	}
	if v, ok := tab.Lookup("a"); !ok || v != 1 {
		t.Fatalf("Lookup(a) = %d, %v after rejected Adds; want 1, true", v, ok)
	}
}

func TestLookupGetAndNames(t *testing.T) {
	tab := New[string]("widget")
	for _, n := range []string{"zeta", "alpha", "mid"} {
		tab.Add(n, n+"!")
	}
	if v, ok := tab.Lookup("mid"); !ok || v != "mid!" {
		t.Fatalf("Lookup(mid) = %q, %v", v, ok)
	}
	if _, ok := tab.Lookup("nonesuch"); ok {
		t.Fatal("Lookup resolved an unknown name")
	}
	if v, err := tab.Get("alpha"); err != nil || v != "alpha!" {
		t.Fatalf("Get(alpha) = %q, %v", v, err)
	}
	_, err := tab.Get("nonesuch")
	if err == nil {
		t.Fatal("Get resolved an unknown name")
	}
	for _, want := range []string{`unknown widget "nonesuch"`, "alpha", "mid", "zeta"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Get error %q does not mention %q", err, want)
		}
	}
	if got, want := tab.Names(), []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestConcurrentUse adds, looks up and lists entries from several
// goroutines at once, as run-time registration beside running experiments
// does; run it under -race.
func TestConcurrentUse(t *testing.T) {
	tab := New[int]("widget")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("w%d-%d", g, i)
				tab.Add(name, i)
				if v, ok := tab.Lookup(name); !ok || v != i {
					t.Errorf("Lookup(%s) = %d, %v", name, v, ok)
				}
				tab.Names()
			}
		}()
	}
	wg.Wait()
	if n := len(tab.Names()); n != 400 {
		t.Fatalf("%d names after concurrent Adds, want 400", n)
	}
}
