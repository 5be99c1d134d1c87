int data[512];
void msort(int lo, int hi) {
    if (hi - lo < 2) { return; }
    int mid = (lo + hi) / 2;
    msort(lo, mid);
    msort(mid, hi);
    int tmp[512];
    int i = lo;
    int j = mid;
    int k = 0;
    while (i < mid && j < hi) {
        if (data[i] <= data[j]) { tmp[k] = data[i]; i++; }
        else { tmp[k] = data[j]; j++; }
        k++;
    }
    while (i < mid) { tmp[k] = data[i]; i++; k++; }
    while (j < hi) { tmp[k] = data[j]; j++; k++; }
    for (int m = 0; m < k; m++) { data[lo + m] = tmp[m]; }
}
int kernel(int seed, int n) {
    if (n < 0) { n = 0; }
    if (n > 512) { n = 512; }
    int s = seed % 9973;
    if (s < 0) { s = -s; }
    int mode = s % 4;
    for (int i = 0; i < n; i++) {
        if (mode == 0) { data[i] = (s * (i + 3)) % 97; }
        else if (mode == 1) { data[i] = n - i; }
        else if (mode == 2) { data[i] = i % 7; }
        else { data[i] = (s ^ i) % 251; }
    }
    msort(0, n);
    int checksum = 0;
    for (int i = 0; i < n; i++) {
        checksum = checksum * 3 + data[i];
        if (i > 0 && data[i] < data[i - 1]) { checksum = -1; }
    }
    return checksum;
}
