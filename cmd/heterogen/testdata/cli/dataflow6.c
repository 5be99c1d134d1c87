void f(int d[16], int o[16]) {
    for (int i = 0; i < 16; i++) {
        o[i] = d[i] + 1;
    }
}

void kernel(int a[16], int b[16], int c[16], int e[16], int x[16], int y[16]) {
#pragma HLS dataflow
    f(a, x);
    f(a, y);
    f(b, c);
    f(b, e);
    f(c, e);
    f(x, y);
}
