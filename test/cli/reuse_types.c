/* the typedef and global the other fixture file uses */
typedef int word;
long g;
