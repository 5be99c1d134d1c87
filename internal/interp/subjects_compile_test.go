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

// TestSubjectsCompile checks that every function defined by the
// evaluation subjects and the Figure 2 kernel compiles without a compile
// error — methods as members of their struct — so none of them faults
// when it is called.
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
		check := func(fn *cast.FuncDecl, recv *ctypes.Struct) {
			if fn.Body == nil {
				return
			}
			if err := interp.CompileInto(code, s.u, fn, recv); err != nil {
				t.Errorf("%s: %s: %v", s.id, fn.Name, err)
			}
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
	}
}
