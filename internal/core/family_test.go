package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/fuzz"
)

// TestPipelineTreeFamily checks repair generality: a family of dynamic
// tree/list kernels differing in value formulas, guard shapes, and
// traversal order must all come out HLS-compatible and behaviour-
// preserving — not just the single shape the unit tests pin.
func TestPipelineTreeFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("family integration test")
	}
	variants := []struct {
		name  string
		value string // expression over s and i
		visit string // statement over curr->val
		order []string
	}{
		{"sum-lr", "(s * (i + 7)) % 113", "total = total + Xval;", []string{"left", "right"}},
		{"xor-rl", "(s ^ (i * 5)) % 97", "total = total ^ Xval;", []string{"right", "left"}},
		{"count", "(s + i * 3) % 51", "total = total + 1;", []string{"left", "right"}},
		{"weighted", "(s * 2 + i) % 77", "total = total + Xval * 3;", []string{"right", "left"}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			visit := strings.ReplaceAll(v.visit, "Xval", "curr->val")
			src := fmt.Sprintf(`
struct Node {
    int val;
    struct Node *left;
    struct Node *right;
};
int total;
void traverse(struct Node *curr) {
    if (curr == 0) { return; }
    %s
    traverse(curr->%s);
    traverse(curr->%s);
}
int kernel(int seed, int n) {
    if (n < 0) { n = 0; }
    if (n > 40) { n = 40; }
    int s = seed %% 997;
    if (s < 0) { s = -s; }
    struct Node *root = 0;
    for (int i = 0; i < n; i++) {
        int v = %s;
        if (v < 0) { v = -v; }
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
}`, visit, v.order[0], v.order[1], v.value)
			res, err := Run(src, Options{Kernel: "kernel",
				Fuzz: fuzz.Options{Seed: 3, MaxExecs: 150, Plateau: 60}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Compatible || !res.BehaviorOK {
				t.Errorf("variant %s not repaired: %v\nlog: %v",
					v.name, res.Repair.Remaining, res.Repair.Stats.EditLog)
			}
		})
	}
}
