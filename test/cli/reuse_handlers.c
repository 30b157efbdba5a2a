void H(void) {
  word w;
  w = 1;
  g = g + 1;
  WAIT_FOR_DB_FULL(w);
}

void B(void) {
  word x;
  if (x) {
    WAIT_FOR_DB_FULL(x);
  }
  x = MISCBUS_READ_DB(x, 0);
}
