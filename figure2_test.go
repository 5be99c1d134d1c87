package heterogen_test

import (
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/repair"
)

// overlapKernel is the paper's Figure 2 working example — the dynamic
// tree with malloc, pointer links, recursion, and a global — carrying
// several error classes at once. Its random-mode search tries tens of
// candidates per accepted edit, which makes it the shared subject of
// the tracing-overhead record, the multi-target Pareto test, and the
// target smoke.
const overlapKernel = `
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

// overlapInputs parses overlapKernel and returns its fixed test suite.
func overlapInputs() (*cast.Unit, []fuzz.TestCase) {
	var tests []fuzz.TestCase
	for _, n := range []int64{0, 1, 3, 8, 24, 17} {
		tests = append(tests, fuzz.TestCase{
			Args: []fuzz.Arg{{Scalar: true, Ints: []int64{n}, Width: 32}},
		})
	}
	return cparser.MustParse(overlapKernel), tests
}

// overlapOptions is the shared search configuration for overlapKernel:
// random-mode search, so tens of candidates are evaluated per
// acceptance.
func overlapOptions(workers int) repair.Options {
	opts := repair.DefaultOptions()
	opts.UseDependence = false
	opts.Budget = 12 * 3600
	opts.MaxIterations = 96
	opts.Workers = workers
	return opts
}
