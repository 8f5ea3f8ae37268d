package micro

import (
	"domainvirt/internal/pmo"
	"domainvirt/internal/workload"
)

// keySet is a set benchmark's data structure: every operation inserts or
// deletes one key inside the caller's write window.
type keySet interface {
	Insert(ctx *OpCtx, key uint64) error
	Delete(ctx *OpCtx, key uint64) (bool, error)
}

// setBench is one set benchmark as the shared driver sees it.
type setBench struct {
	name string
	// build constructs one empty structure whose root lives in home.
	build func(ctx *OpCtx, home *pmo.Pool) (keySet, error)
	// size returns the key space and the setup element count of one
	// structure.
	size func(p workload.Params) (keyspace uint64, elems int)
}

// plainSize sizes a structure by the Params key space and InitialElems.
func plainSize(p workload.Params) (uint64, int) { return p.Keyspace(), p.InitialElems }

// setBenches are the Table IV benchmarks whose operation is a set
// insert or delete; ss swaps strings and has its own driver.
var setBenches = []setBench{
	{"avl", func(ctx *OpCtx, home *pmo.Pool) (keySet, error) { return NewAVL(ctx, home), nil }, plainSize},
	{"rbt", func(ctx *OpCtx, home *pmo.Pool) (keySet, error) { return NewRBT(ctx, home) }, plainSize},
	{"bt", func(ctx *OpCtx, home *pmo.Pool) (keySet, error) { return NewBPTree(ctx, home) }, btSize},
	{"ll", func(ctx *OpCtx, home *pmo.Pool) (keySet, error) { return NewLinkedList(ctx, home), nil }, llSize},
}

func init() {
	for i := range setBenches {
		b := &setBenches[i]
		workload.Register(b.name, func() workload.Workload { return &setWorkload{bench: b} })
	}
}

// setWorkload drives every set benchmark. Under scattered placement it
// keeps one structure rooted in the home pool; under per-pool placement
// one per pool, each with its nodes pinned to that pool.
type setWorkload struct {
	bench    *setBench
	mp       *MultiPool
	keyspace uint64
	sets     []keySet // sets[i] is rooted in mp.Pools[i]
}

// Name implements workload.Workload.
func (w *setWorkload) Name() string { return w.bench.name }

// Setup implements workload.Workload. For each home pool it constructs
// the structure, then pins placement to that pool, then inserts. The
// pin moves after construction, so a constructor that allocates through
// ctx places its node by the previous pool's pin.
func (w *setWorkload) Setup(env *workload.Env) error {
	mp, err := SetupPools(env, w.bench.name)
	if err != nil {
		return err
	}
	w.mp = mp
	ctx := NewOpCtx(env, mp)
	homes := []*pmo.Pool{mp.Home()}
	if env.P.PerPool() {
		homes = mp.Pools
	}
	var elems int
	w.keyspace, elems = w.bench.size(env.P)
	for _, home := range homes {
		s, err := w.bench.build(ctx, home)
		if err != nil {
			return err
		}
		if env.P.PerPool() {
			ctx.Pin = home
		}
		for i := 0; i < elems; i++ {
			if err := s.Insert(ctx, randomKey(env, w.keyspace)); err != nil {
				return err
			}
			ctx.End()
		}
		w.sets = append(w.sets, s)
	}
	return nil
}

// Run implements workload.Workload: 90% inserts, 10% deletes, random
// keys, a write window per operation.
func (w *setWorkload) Run(env *workload.Env) error {
	ctx := NewOpCtx(env, w.mp)
	for i := 0; i < env.P.Ops; i++ {
		env.Space.Thread = opThread(env, i)
		env.Space.Instr(env.P.InstrPerOp)
		s := w.sets[0]
		if env.P.PerPool() {
			idx := env.Rng.Intn(len(w.sets))
			s, ctx.Pin = w.sets[idx], w.mp.Pools[idx]
		}
		key := randomKey(env, w.keyspace)
		var err error
		if env.Rng.Intn(100) < 90 {
			err = s.Insert(ctx, key)
		} else {
			_, err = s.Delete(ctx, key)
		}
		if err != nil {
			return err
		}
		ctx.End()
		env.OpDone(i)
	}
	return nil
}
