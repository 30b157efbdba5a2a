/* a parse error on one line and a stray character on the next: --strict
   and --fix must report the parse error, the first in source order */
void NIBroken(void) {
  long x;
  x = (1 + ;
  x = 2 $ 3;
}
