package interp_test

import (
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/subjects"
)

// figure2Kernel is the paper's Figure 2 binary-tree kernel, as the
// repair tests and the root Figure 2 test run it.
const figure2Kernel = `
struct Node {
    int val;
    struct Node *left;
    struct Node *right;
};
int total;
void traverse(struct Node *curr) {
    if (curr == 0) { return; }
    total = total + curr->val;
    traverse(curr->left);
    traverse(curr->right);
}
int kernel(int n) {
    if (n < 0) { n = -n; }
    if (n > 24) { n = 24; }
    struct Node *root = 0;
    for (int i = 0; i < n; i++) {
        int v = (i * 37) % 101;
        struct Node *nn = (struct Node *)malloc(sizeof(struct Node));
        nn->val = v;
        nn->left = 0;
        nn->right = 0;
        if (root == 0) { root = nn; }
        else {
            struct Node *p = root;
            while (1) {
                if (v < p->val) {
                    if (p->left == 0) { p->left = nn; break; }
                    p = p->left;
                } else {
                    if (p->right == 0) { p->right = nn; break; }
                    p = p->right;
                }
            }
        }
    }
    total = 0;
    traverse(root);
    return total;
}`

// typedSites pins, per subject, how many binary operators, conditions
// and index expressions its functions hold and how many of each compile
// typed (interp.SiteCounts). A change that moves sites off the typed
// path, or onto it, shows here; only a deliberate change to the typing
// rule may update the table.
var typedSites = map[string]interp.SiteCounts{
	"P1":   {Binary: 15, BinaryTyped: 0, Cond: 0, CondTyped: 0, Index: 3, IndexTyped: 3},
	"P2":   {Binary: 17, BinaryTyped: 1, Cond: 1, CondTyped: 1, Index: 2, IndexTyped: 2},
	"P3":   {Binary: 35, BinaryTyped: 32, Cond: 15, CondTyped: 15, Index: 19, IndexTyped: 19},
	"P4":   {Binary: 29, BinaryTyped: 29, Cond: 10, CondTyped: 10, Index: 6, IndexTyped: 6},
	"P5":   {Binary: 22, BinaryTyped: 11, Cond: 13, CondTyped: 13, Index: 2, IndexTyped: 1},
	"P6":   {Binary: 12, BinaryTyped: 11, Cond: 5, CondTyped: 5, Index: 3, IndexTyped: 3},
	"P7":   {Binary: 4, BinaryTyped: 3, Cond: 3, CondTyped: 3, Index: 7, IndexTyped: 7},
	"P8":   {Binary: 21, BinaryTyped: 11, Cond: 10, CondTyped: 10, Index: 4, IndexTyped: 2},
	"P9":   {Binary: 82, BinaryTyped: 67, Cond: 15, CondTyped: 15, Index: 20, IndexTyped: 20},
	"P10":  {Binary: 18, BinaryTyped: 18, Cond: 8, CondTyped: 8, Index: 2, IndexTyped: 2},
	"fig2": {Binary: 11, BinaryTyped: 5, Cond: 9, CondTyped: 9, Index: 0, IndexTyped: 0},
}

// TestSubjectsCompile checks that every function defined by the
// evaluation subjects and the Figure 2 kernel compiles without a compile
// error — methods as members of their struct — so none of them faults
// when it is called, and that each subject's typed-path inventory is the
// one typedSites pins.
func TestSubjectsCompile(t *testing.T) {
	type subject struct {
		id string
		u  *cast.Unit
	}
	var all []subject
	for _, s := range subjects.All() {
		all = append(all, subject{s.ID, s.MustParse()})
	}
	all = append(all, subject{"fig2", cparser.MustParse(figure2Kernel)})
	for _, s := range all {
		code := interp.NewCodebase()
		var sites interp.SiteCounts
		check := func(fn *cast.FuncDecl, recv *ctypes.Struct) {
			if fn.Body == nil {
				return
			}
			fs, err := interp.CompileInto(code, s.u, fn, recv)
			if err != nil {
				t.Errorf("%s: %s: %v", s.id, fn.Name, err)
			}
			sites = sites.Add(fs)
		}
		for _, d := range s.u.Decls {
			switch x := d.(type) {
			case *cast.FuncDecl:
				check(x, nil)
			case *cast.StructDecl:
				for _, m := range x.Methods {
					check(m, x.Type)
				}
			}
		}
		if want := typedSites[s.id]; sites != want {
			t.Errorf("%s: typed-path inventory %+v, pinned %+v", s.id, sites, want)
		}
	}
}
