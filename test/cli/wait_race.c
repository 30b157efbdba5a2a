void H(void) {
  long a;
  if (a) {
    WAIT_FOR_DB_FULL(a);
  }
  a = MISCBUS_READ_DB(a, 0);
}
