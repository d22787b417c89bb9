package kernels

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/kpl"
	"repro/internal/kpl/kplgen"
)

// oracleSignature is Kernel.Signature as it was before the allocation-free
// walker replaced it: an FNV-1a hash of an fmt rendering of the kernel. It is
// kept as the oracle for which kernels count as identical.
func oracleSignature(k *kpl.Kernel) uint64 {
	h := fnv.New64a()
	io.WriteString(h, k.Name)
	names := make([]string, 0, len(k.Bufs))
	for _, b := range k.Bufs {
		names = append(names, fmt.Sprintf("%s:%s:%d:%t", b.Name, b.Elem, b.Access, b.ReadOnly))
	}
	sort.Strings(names)
	for _, n := range names {
		io.WriteString(h, n)
	}
	for _, p := range k.Params {
		fmt.Fprintf(h, "%s:%s", p.Name, p.T)
	}
	oracleStmts(h, k.Body)
	return h.Sum64()
}

func oracleStmts(h io.Writer, ss []kpl.Stmt) {
	for _, s := range ss {
		switch x := s.(type) {
		case *kpl.LetStmt:
			fmt.Fprintf(h, "let %s=", x.Name)
			oracleExpr(h, x.E)
		case *kpl.StoreStmt:
			fmt.Fprintf(h, "st %s[", x.Buf)
			oracleExpr(h, x.Idx)
			io.WriteString(h, "]=")
			oracleExpr(h, x.Val)
		case *kpl.AtomicAddStmt:
			fmt.Fprintf(h, "atom %s[", x.Buf)
			oracleExpr(h, x.Idx)
			io.WriteString(h, "]+=")
			oracleExpr(h, x.Val)
		case *kpl.ForStmt:
			fmt.Fprintf(h, "for %s ", x.Var)
			oracleExpr(h, x.Start)
			oracleExpr(h, x.End)
			oracleStmts(h, x.Body)
			io.WriteString(h, "rof")
		case *kpl.IfStmt:
			io.WriteString(h, "if ")
			oracleExpr(h, x.Cond)
			oracleStmts(h, x.Then)
			io.WriteString(h, "else")
			oracleStmts(h, x.Else)
		case *kpl.BreakStmt:
			io.WriteString(h, "break")
		}
	}
}

func oracleExpr(h io.Writer, e kpl.Expr) {
	switch x := e.(type) {
	case *kpl.Const:
		fmt.Fprintf(h, "c%d:%g:%d", x.T, x.F, x.I)
	case *kpl.TIDExpr:
		io.WriteString(h, "tid")
	case *kpl.NTExpr:
		io.WriteString(h, "nt")
	case *kpl.ParamExpr:
		fmt.Fprintf(h, "p%s", x.Name)
	case *kpl.VarExpr:
		fmt.Fprintf(h, "v%s", x.Name)
	case *kpl.BinExpr:
		fmt.Fprintf(h, "b%d(", x.Op)
		oracleExpr(h, x.A)
		io.WriteString(h, ",")
		oracleExpr(h, x.B)
		io.WriteString(h, ")")
	case *kpl.UnExpr:
		fmt.Fprintf(h, "u%d(", x.Op)
		oracleExpr(h, x.A)
		io.WriteString(h, ")")
	case *kpl.LoadExpr:
		fmt.Fprintf(h, "ld %s[", x.Buf)
		oracleExpr(h, x.Idx)
		io.WriteString(h, "]")
	case *kpl.CastExpr:
		fmt.Fprintf(h, "cast%d(", x.T)
		oracleExpr(h, x.A)
		io.WriteString(h, ")")
	case *kpl.SelExpr:
		io.WriteString(h, "sel(")
		oracleExpr(h, x.Cond)
		oracleExpr(h, x.A)
		oracleExpr(h, x.B)
		io.WriteString(h, ")")
	}
}

// relabel returns a copy of the statements with every loop label replaced.
func relabel(ss []kpl.Stmt, n *int) []kpl.Stmt {
	out := make([]kpl.Stmt, len(ss))
	for i, s := range ss {
		switch x := s.(type) {
		case *kpl.ForStmt:
			c := *x
			*n++
			c.Label = fmt.Sprintf("relabelled%d", *n)
			c.Body = relabel(x.Body, n)
			out[i] = &c
		case *kpl.IfStmt:
			c := *x
			c.Then, c.Else = relabel(x.Then, n), relabel(x.Else, n)
			out[i] = &c
		default:
			out[i] = s
		}
	}
	return out
}

// signatureCorpus is the kernels registry and the kplgen random corpus, each
// kernel followed by variants that must keep its signature (loops relabelled,
// buffer declarations reversed, cache-model hints changed) and variants that
// must not (renamed, a buffer's mutability flipped, a statement appended).
func signatureCorpus() (corpus []*kpl.Kernel, same [][2]int, differ [][2]int) {
	var base []*kpl.Kernel
	for _, b := range All() {
		base = append(base, b.Kernel)
	}
	rng := rand.New(rand.NewSource(0x5167a))
	for i := 0; i < 600; i++ {
		data := make([]byte, 24+rng.Intn(160))
		rng.Read(data)
		if k, _, ok := kplgen.Decode(data); ok {
			base = append(base, k)
		}
	}
	for _, k := range base {
		i := len(corpus)
		corpus = append(corpus, k)

		relabelled := *k
		n := 0
		relabelled.Body = relabel(k.Body, &n)
		reordered := *k
		reordered.Bufs = make([]kpl.BufDecl, len(k.Bufs))
		for j, b := range k.Bufs {
			b.Stride += 3
			b.L2Fraction = 0.5
			reordered.Bufs[len(k.Bufs)-1-j] = b
		}
		for _, v := range []*kpl.Kernel{&relabelled, &reordered} {
			same = append(same, [2]int{i, len(corpus)})
			corpus = append(corpus, v)
		}

		renamed := *k
		renamed.Name = k.Name + "'"
		longer := *k
		longer.Body = append(append([]kpl.Stmt(nil), k.Body...), kpl.Let("sigtest", kpl.TID()))
		variants := []*kpl.Kernel{&renamed, &longer}
		if len(k.Bufs) > 0 {
			flipped := *k
			flipped.Bufs = append([]kpl.BufDecl(nil), k.Bufs...)
			flipped.Bufs[0].ReadOnly = !flipped.Bufs[0].ReadOnly
			variants = append(variants, &flipped)
		}
		for _, v := range variants {
			differ = append(differ, [2]int{i, len(corpus)})
			corpus = append(corpus, v)
		}
	}
	return corpus, same, differ
}

// TestSignatureEquivalenceClasses: over the registry and the kplgen corpus
// the allocation-free Signature calls two kernels identical exactly when the
// fmt-based one did, so Kernel Match and the timing cache group launches as
// before.
func TestSignatureEquivalenceClasses(t *testing.T) {
	corpus, same, differ := signatureCorpus()
	got, want := make([]uint64, len(corpus)), make([]uint64, len(corpus))
	for i, k := range corpus {
		got[i], want[i] = k.Signature(), oracleSignature(k)
	}
	for _, p := range same {
		if got[p[0]] != got[p[1]] {
			t.Errorf("%s: relabelling loops or reordering buffer declarations changed the signature", corpus[p[0]].Name)
		}
	}
	for _, p := range differ {
		if got[p[0]] == got[p[1]] {
			t.Errorf("%s: a renamed, re-declared or longer kernel kept the signature", corpus[p[0]].Name)
		}
	}
	// Equal iff equal, over every pair: group by one signature and require
	// the other to be constant inside a group and distinct across groups.
	byWant, byGot := map[uint64]uint64{}, map[uint64]uint64{}
	for i := range corpus {
		if g, ok := byWant[want[i]]; ok && g != got[i] {
			t.Fatalf("%s: identical under the oracle, distinct under Signature", corpus[i].Name)
		}
		if w, ok := byGot[got[i]]; ok && w != want[i] {
			t.Fatalf("%s: distinct under the oracle, identical under Signature", corpus[i].Name)
		}
		byWant[want[i]], byGot[got[i]] = got[i], want[i]
	}
	if len(byWant) < len(All()) {
		t.Fatalf("only %d distinct signatures over %d kernels", len(byWant), len(corpus))
	}
	t.Logf("%d kernels, %d classes", len(corpus), len(byWant))
}

// TestSignatureAllocs: Signature runs on every launch (timing-cache key) and
// for every kernel job of every batch (Kernel Match), so it must not allocate.
func TestSignatureAllocs(t *testing.T) {
	for _, b := range All() {
		k := b.Kernel
		if n := testing.AllocsPerRun(20, func() { _ = k.Signature() }); n != 0 {
			t.Errorf("%s: Signature allocates %v times", b.Name, n)
		}
	}
}

// TestNativeLeavesReadOnlyBuffersUnchanged: the launch path hands a native
// kernel its read-only parameters as views of device memory, so no native
// implementation in the registry may write to one.
func TestNativeLeavesReadOnlyBuffersUnchanged(t *testing.T) {
	for _, b := range All() {
		if b.Native == nil {
			continue
		}
		w := b.MakeWorkload(1)
		env, ref := buildEnv(t, b, w), buildEnv(t, b, w)
		if err := b.Native(env); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, decl := range b.Kernel.Bufs {
			if !decl.ReadOnly {
				continue
			}
			if err := kplgen.BuffersEqual(env.Bufs[decl.Name], ref.Bufs[decl.Name]); err != nil {
				t.Errorf("%s: native kernel wrote to read-only buffer %q: %v", b.Name, decl.Name, err)
			}
		}
	}
}

// TestNativesRunConcurrentlyOnDistinctEnvs: hostgpu.Launch.Native's contract,
// which the coalescer's fan-out of merged pieces relies on — a native kernel
// keeps no state outside its environment, so concurrent calls on distinct
// environments (run under -race) each give the serial result.
func TestNativesRunConcurrentlyOnDistinctEnvs(t *testing.T) {
	for _, b := range All() {
		if b.Native == nil {
			continue
		}
		w := b.MakeWorkload(1)
		ref := buildEnv(t, b, w)
		if err := b.Native(ref); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		envs := make([]*kpl.Env, 4)
		errs := make([]error, len(envs))
		var wg sync.WaitGroup
		for i := range envs {
			envs[i] = buildEnv(t, b, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = b.Native(envs[i])
			}()
		}
		wg.Wait()
		for i, env := range envs {
			if errs[i] != nil {
				t.Fatalf("%s: concurrent call %d: %v", b.Name, i, errs[i])
			}
			for name, buf := range env.Bufs {
				if err := kplgen.BuffersEqual(buf, ref.Bufs[name]); err != nil {
					t.Errorf("%s: concurrent call %d differs from the serial run in %q: %v", b.Name, i, name, err)
				}
			}
		}
	}
}
