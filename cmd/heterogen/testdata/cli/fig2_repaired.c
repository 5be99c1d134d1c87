typedef int Node_ptr;

struct Node {
    int val;
    Node_ptr left;
    Node_ptr right;
};

struct Node Node_arr[256];

int Node_next = 1;

Node_ptr Node_malloc(int sz) {
    Node_ptr p = Node_next;
    Node_next = Node_next + 1;
    return p;
}

void Node_free(Node_ptr p) {
}

int total;

struct traverse_ctx {
    Node_ptr curr;
    int loc;
};

struct traverse_ctx traverse_stack[32];

int traverse_top;

void traverse(Node_ptr curr) {
    traverse_top = 0;
    traverse_stack[traverse_top].curr = curr;
    traverse_stack[traverse_top].loc = 0;
    traverse_top = traverse_top + 1;
    while (traverse_top > 0) {
        #pragma HLS pipeline II=1
        traverse_top = traverse_top - 1;
        Node_ptr curr = traverse_stack[traverse_top].curr;
        switch (traverse_stack[traverse_top].loc) {
        case 0:
            if (curr == 0) {
                break;
            }
            total = total + Node_arr[curr].val;
            traverse_stack[traverse_top].curr = curr;
            traverse_stack[traverse_top].loc = 1;
            traverse_top = traverse_top + 1;
            traverse_stack[traverse_top].curr = Node_arr[curr].left;
            traverse_stack[traverse_top].loc = 0;
            traverse_top = traverse_top + 1;
            break;
        case 1:
            traverse_stack[traverse_top].curr = curr;
            traverse_stack[traverse_top].loc = 2;
            traverse_top = traverse_top + 1;
            traverse_stack[traverse_top].curr = Node_arr[curr].right;
            traverse_stack[traverse_top].loc = 0;
            traverse_top = traverse_top + 1;
            break;
        case 2:
            break;
        }
    }
}

int kernel(int n) {
    if (n < 0) {
        n = -n;
    }
    if (n > 24) {
        n = 24;
    }
    Node_ptr root = 0;
    for (fpga_uint<6> i = 0; i < n; i++) {
        #pragma HLS pipeline II=1
        fpga_uint<8> v = i * 37 % 101;
        Node_ptr nn = Node_malloc(sizeof(struct Node));
        Node_arr[nn].val = v;
        Node_arr[nn].left = 0;
        Node_arr[nn].right = 0;
        if (root == 0) {
            root = nn;
        }
        else {
            Node_ptr p = root;
            while (1) {
                #pragma HLS pipeline II=1
                if (v < Node_arr[p].val) {
                    if (Node_arr[p].left == 0) {
                        Node_arr[p].left = nn;
                        break;
                    }
                    p = Node_arr[p].left;
                }
                else {
                    if (Node_arr[p].right == 0) {
                        Node_arr[p].right = nn;
                        break;
                    }
                    p = Node_arr[p].right;
                }
            }
        }
    }
    total = 0;
    traverse(root);
    return total;
}
