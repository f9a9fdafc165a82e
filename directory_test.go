package contextpref

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestDirectoryBasics(t *testing.T) {
	env, _ := ReferenceEnvironment()
	rel := buildPOIs(t)
	if _, err := NewDirectory(nil, rel); err == nil {
		t.Error("nil env should fail")
	}
	if _, err := NewDirectory(env, nil); err == nil {
		t.Error("nil relation should fail")
	}
	d, err := NewDirectory(env, rel, WithSystemOptions(WithMetric(HierarchyDistance{})))
	if err != nil {
		t.Fatal(err)
	}
	if d.Env() != env || d.Relation() != rel {
		t.Error("accessors broken")
	}
	// Creating a user, idempotently.
	alice, err := d.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.User("alice")
	if err != nil || again != alice {
		t.Error("User should return the same system")
	}
	if _, err := d.User(""); err == nil {
		t.Error("empty user name should fail")
	}
	// Profiles are isolated.
	if err := alice.AddPreference(paperPreferences()[0]); err != nil {
		t.Fatal(err)
	}
	bob, _ := d.User("bob")
	if bob.NumPreferences() != 0 {
		t.Error("profiles leaked between users")
	}
	if alice.NumPreferences() != 1 {
		t.Error("alice's preference missing")
	}
	// Listing, lookup, removal.
	if got := d.Users(); !reflect.DeepEqual(got, []string{"alice", "bob"}) {
		t.Errorf("Users = %v", got)
	}
	if _, ok := d.Lookup("alice"); !ok {
		t.Error("Lookup(alice) missing")
	}
	if _, ok := d.Lookup("carol"); ok {
		t.Error("Lookup(carol) should be absent")
	}
	if ok, err := d.RemoveUser("bob"); !ok || err != nil {
		t.Errorf("RemoveUser(bob) = %v, %v, want true, nil", ok, err)
	}
	if ok, err := d.RemoveUser("bob"); ok || err != nil {
		t.Errorf("second RemoveUser(bob) = %v, %v, want false, nil", ok, err)
	}
	if got := d.Users(); !reflect.DeepEqual(got, []string{"alice"}) {
		t.Errorf("Users after remove = %v", got)
	}
}

func TestDirectoryDefaultProfiles(t *testing.T) {
	env, _ := ReferenceEnvironment()
	d, err := NewDirectory(env, buildPOIs(t), WithDefaultProfile(func(user string) ([]Preference, error) {
		if user == "broken" {
			return nil, fmt.Errorf("no defaults for %s", user)
		}
		return paperPreferences(), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := d.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	if alice.NumPreferences() != len(paperPreferences()) {
		t.Errorf("seeded preferences = %d", alice.NumPreferences())
	}
	// Seeded users answer queries immediately.
	cur, _ := alice.NewState("Plaka", "warm", "friends")
	res, err := alice.Query(Query{TopK: 5}, cur)
	if err != nil || !res.Contextual {
		t.Errorf("seeded query: %+v, %v", res, err)
	}
	// Seed errors surface and do not register the user.
	if _, err := d.User("broken"); err == nil {
		t.Error("seed error should fail")
	}
	if _, ok := d.Lookup("broken"); ok {
		t.Error("failed seed must not register the user")
	}
}

func TestDirectoryConcurrent(t *testing.T) {
	env, _ := ReferenceEnvironment()
	d, err := NewDirectory(env, buildPOIs(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", g%4) // contended names
			for i := 0; i < 25; i++ {
				sys, err := d.User(user)
				if err != nil {
					errs <- err
					return
				}
				p := MustPreference(
					MustDescriptor(Eq("temperature", []string{"cold", "mild", "warm", "hot", "freezing"}[i%5]),
						Eq("location", []string{"Plaka", "Kifisia", "Perama"}[g%3])),
					Clause{Attr: "type", Op: OpEq, Val: String(fmt.Sprintf("t%d-%d", g, i))}, 0.5)
				if err := sys.AddPreference(p); err != nil {
					errs <- err
					return
				}
				cur, _ := sys.NewState("Plaka", "warm", "friends")
				if _, err := sys.Query(Query{TopK: 3}, cur); err != nil {
					errs <- err
					return
				}
				d.Users()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(d.Users()); got != 4 {
		t.Errorf("users = %d, want 4", got)
	}
}
