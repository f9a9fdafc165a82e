package contextpref

import (
	"fmt"
	"sync"
	"testing"
)

func TestSafeSystemConcurrentUse(t *testing.T) {
	for _, caching := range []bool{false, true} {
		t.Run(fmt.Sprintf("caching=%v", caching), func(t *testing.T) {
			var opts []Option
			if caching {
				opts = append(opts, WithQueryCache(16))
			}
			sys := newSafeSystem(t, opts...)
			if err := sys.AddPreferences(paperPreferences()...); err != nil {
				t.Fatal(err)
			}

			regions := []string{"Plaka", "Kifisia", "Perama", "Kastro"}
			temps := []string{"warm", "cold", "hot", "mild"}
			people := []string{"friends", "family", "alone"}

			var wg sync.WaitGroup
			errs := make(chan error, 64)
			// Concurrent readers.
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						st, err := sys.NewState(
							regions[(g+i)%len(regions)],
							temps[i%len(temps)],
							people[(g*i)%len(people)])
						if err != nil {
							errs <- err
							return
						}
						if _, err := sys.Query(Query{TopK: 5}, st); err != nil {
							errs <- err
							return
						}
						if _, _, err := sys.Resolve(st); err != nil {
							errs <- err
							return
						}
						if _, err := sys.ResolveAll(st); err != nil {
							errs <- err
							return
						}
						sys.Stats()
						sys.NumPreferences()
					}
				}(g)
			}
			// Concurrent writers adding distinct non-conflicting prefs.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						p := MustPreference(
							MustDescriptor(
								Eq("location", regions[g%len(regions)]),
								Eq("temperature", temps[i%len(temps)]),
								Eq("accompanying_people", people[(g+i)%len(people)])),
							Clause{Attr: "type", Op: OpEq, Val: String(fmt.Sprintf("g%d-i%d", g, i))},
							0.5)
						if err := sys.AddPreference(p); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := sys.NumPreferences(); got != 3+40 {
				t.Errorf("NumPreferences = %d, want 43", got)
			}
			// Export still works after concurrent mutation.
			if _, err := sys.ExportProfile(); err != nil {
				t.Fatal(err)
			}
			// LoadProfile through the wrapper.
			if err := sys.LoadProfile("[location = Plaka; temperature = freezing] => type = x : 0.5"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
