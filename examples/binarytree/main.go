// Binary tree: the paper's Figure 2 working example. A kernel that builds
// a binary search tree with malloc/pointers and sums it with a recursive
// traversal — three error classes deep (dynamic allocation, pointers,
// recursion). HeteroGen converts it to a pool-indexed, stack-machine
// version and validates behaviour differentially.
//
// Run with:
//
//	go run ./examples/binarytree
package main

import (
	"fmt"
	"log"

	"github.com/hetero/heterogen"
)

const src = `
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

func main() {
	reps, err := heterogen.Check(src, heterogen.Options{Kernel: "kernel"})
	if err != nil {
		log.Fatal(err)
	}
	rep := reps[0].Report
	fmt.Printf("== %d diagnostics before repair ==\n", len(rep.Diags))
	// Classes in the paper's Table 1 order: a map's order would vary.
	by := rep.ByClass()
	for class := heterogen.ClassDynamicData; class <= heterogen.ClassTopFunction; class++ {
		if diags := by[class]; len(diags) > 0 {
			fmt.Printf("  %s: %d\n", class, len(diags))
		}
	}

	res, err := heterogen.Transpile(src, heterogen.Options{
		Kernel: "kernel",
		Fuzz:   heterogen.FuzzOptions{Seed: 7, MaxExecs: 600, Plateau: 200, TypedMutation: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== repair log ==")
	for _, e := range res.Repair.Stats.EditLog {
		fmt.Println(" ", e)
	}
	fmt.Printf("\n== verdict: %s ==\n", res.Summary())
	fmt.Printf("virtual repair time: %.0f minutes, %d HLS invocations (%d style-rejected candidates)\n",
		res.Repair.Stats.VirtualMinutes(), res.Repair.Stats.HLSInvocations,
		res.Repair.Stats.StyleRejections)

	fmt.Println("\n== converted traversal (excerpt) ==")
	printFrom(res.Source, "struct traverse_ctx", 24)
}

// printFrom prints up to n lines of src starting at the line containing
// the marker.
func printFrom(src, marker string, n int) {
	lines := splitLines(src)
	start := 0
	for i, l := range lines {
		if contains(l, marker) {
			start = i
			break
		}
	}
	for i := start; i < len(lines) && i < start+n; i++ {
		fmt.Println(lines[i])
	}
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
